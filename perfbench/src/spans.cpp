#include "spans.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Just enough JSON to walk the tracer's {"traceEvents":[{...}]} output:
/// objects, arrays, strings, numbers and literals. Values other than the
/// event fields the harvest needs are parsed and dropped.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::vector<Span> events() {
    std::vector<Span> out;
    expect('{');
    if (peek() != '}') {
      do {
        const std::string key = string();
        expect(':');
        if (key == "traceEvents") {
          array([&] { event(out); });
        } else {
          skip_value();
        }
      } while (accept(','));
    }
    expect('}');
    return out;
  }

 private:
  void event(std::vector<Span>& out) {
    Span span;
    std::string ph;
    expect('{');
    if (peek() != '}') {
      do {
        const std::string key = string();
        expect(':');
        if (key == "name") {
          span.name = string();
        } else if (key == "cat") {
          span.cat = string();
        } else if (key == "ph") {
          ph = string();
        } else if (key == "ts") {
          span.ts_us = static_cast<std::int64_t>(number());
        } else if (key == "dur") {
          span.dur_us = static_cast<std::int64_t>(number());
        } else {
          skip_value();
        }
      } while (accept(','));
    }
    expect('}');
    if (ph == "X") out.push_back(std::move(span));
  }

  template <typename Fn>
  void array(Fn&& item) {
    expect('[');
    if (peek() != ']') {
      do {
        item();
      } while (accept(','));
    }
    expect(']');
  }

  void skip_value() {
    const char c = peek();
    if (c == '"') {
      (void)string();
    } else if (c == '{') {
      expect('{');
      if (peek() != '}') {
        do {
          (void)string();
          expect(':');
          skip_value();
        } while (accept(','));
      }
      expect('}');
    } else if (c == '[') {
      array([&] { skip_value(); });
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (pos_ < s_.size() &&
             std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    } else {
      (void)number();
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("truncated escape");
        c = s_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            pos_ += 4;  // control characters only; kept as a placeholder
            c = '?';
            break;
          default: break;  // '"', '\\', '/'
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  double number() {
    skip_ws();
    const char* begin = s_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("number expected");
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  bool accept(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!accept(c)) fail(std::string("expected '") + c + "'");
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace JSON: " + what + " at offset " +
                             std::to_string(pos_));
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::vector<Span> in_window(const std::vector<Span>& spans,
                            std::string_view cat, const Window& w) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.cat == cat && w.contains(s)) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.ts_us < b.ts_us; });
  return out;
}

}  // namespace

std::vector<Span> harvest(const starcdn::obs::Tracer& tracer) {
  std::ostringstream os;
  tracer.write_json(os);
  const std::string text = os.str();
  return Parser(text).events();
}

double span_seconds(const std::vector<Span>& spans, std::string_view name,
                    const Window& w) {
  std::int64_t us = 0;
  for (const Span& s : spans) {
    if (s.name == name && w.contains(s)) us += s.dur_us;
  }
  return static_cast<double>(us) * 1e-6;
}

double producer_wait_seconds(const std::vector<Span>& spans, const Window& w,
                             const std::vector<TimingStream::Pull>& pulls) {
  std::vector<Span> stage1;
  for (const Span& s : in_window(spans, "core", w)) {
    if (s.name == "stage1_context") stage1.push_back(s);
  }
  std::map<std::string, std::vector<std::int64_t>> variant_us;
  for (const Span& s : in_window(spans, "variant", w)) {
    variant_us[s.name].push_back(s.dur_us);
  }
  // Chunk k is replayed in iteration k; the first pull and stage-1 build
  // happen before the loop, so iteration k pairs with pull k+1.
  const std::size_t chunks = stage1.size();
  double wait_s = 0.0;
  for (std::size_t k = 0; k < chunks; ++k) {
    std::int64_t longest_us = 0;
    for (const auto& [name, durs] : variant_us) {
      if (k < durs.size()) longest_us = std::max(longest_us, durs[k]);
    }
    double producer_s = k + 1 < pulls.size() ? pulls[k + 1].seconds : 0.0;
    if (k + 1 < chunks) {
      producer_s += static_cast<double>(stage1[k + 1].dur_us) * 1e-6;
    }
    wait_s +=
        std::max(0.0, producer_s - static_cast<double>(longest_us) * 1e-6);
  }
  return wait_s;
}

}  // namespace perfbench
