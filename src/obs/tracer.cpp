#include "obs/tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <thread>

namespace starcdn::obs {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t this_tid() noexcept {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint32_t>(h & 0x7fffffffu);
}

std::atomic<Tracer*> g_tracer{nullptr};

void append_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

TraceArg arg(std::string key, std::string value) {
  return {std::move(key), std::move(value), true};
}
TraceArg arg(std::string key, const char* value) {
  return {std::move(key), std::string(value), true};
}
TraceArg arg(std::string key, std::uint64_t value) {
  return {std::move(key), std::to_string(value), false};
}
TraceArg arg(std::string key, std::int64_t value) {
  return {std::move(key), std::to_string(value), false};
}
TraceArg arg(std::string key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return {std::move(key), std::string(buf), false};
}

Tracer::Tracer() : origin_ns_(steady_ns()) {}

std::int64_t Tracer::now_us() const noexcept {
  return (steady_ns() - origin_ns_) / 1000;
}

void Tracer::complete(std::string name, const char* cat, std::int64_t ts_us,
                      std::int64_t dur_us, std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ph = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = this_tid();
  e.args = std::move(args);
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void Tracer::instant(std::string name, const char* cat,
                     std::vector<TraceArg> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ph = 'i';
  e.ts_us = now_us();
  e.tid = this_tid();
  e.args = std::move(args);
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

std::size_t Tracer::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

ProfileReport Tracer::profile() const {
  std::map<std::string, ProfileEntry> folded;  // name-sorted
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : events_) {
      if (e.ph != 'X') continue;
      ProfileEntry& p = folded[e.name];
      const double ms = static_cast<double>(e.dur_us) / 1e3;
      p.name = e.name;
      ++p.calls;
      p.total_ms += ms;
      p.max_ms = std::max(p.max_ms, ms);
    }
  }
  ProfileReport report;
  report.entries.reserve(folded.size());
  for (auto& kv : folded) report.entries.push_back(std::move(kv.second));
  return report;
}

void ProfileReport::print(std::ostream& os) const {
  if (entries.empty()) {
    os << "profile: no spans recorded\n";
    return;
  }
  std::vector<ProfileEntry> by_total = entries;
  std::sort(by_total.begin(), by_total.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.name < b.name;
            });
  os << "profile (trace spans, wall clock):\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-36s %10s %12s %10s %10s\n", "span",
                "calls", "total ms", "mean ms", "max ms");
  os << line;
  for (const auto& e : by_total) {
    std::snprintf(line, sizeof(line),
                  "  %-36s %10llu %12.3f %10.4f %10.3f\n", e.name.c_str(),
                  static_cast<unsigned long long>(e.calls), e.total_ms,
                  e.mean_ms(), e.max_ms);
    os << line;
  }
}

void Tracer::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":";
    append_json_string(os, e.name);
    os << ",\"cat\":";
    append_json_string(os, e.cat);
    os << ",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts_us;
    if (e.ph == 'X') os << ",\"dur\":" << e.dur_us;
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":1,\"tid\":" << e.tid;
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const auto& a : e.args) {
        if (!first_arg) os << ',';
        first_arg = false;
        append_json_string(os, a.key);
        os << ':';
        if (a.quoted) {
          append_json_string(os, a.value);
        } else {
          os << a.value;
        }
      }
      os << '}';
    }
    os << '}';
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return static_cast<bool>(out);
}

void set_tracer(Tracer* t) noexcept {
  g_tracer.store(t, std::memory_order_release);
}

Tracer* tracer() noexcept { return g_tracer.load(std::memory_order_acquire); }

TraceSpan::TraceSpan(Tracer* t, const char* name, const char* cat,
                     std::vector<TraceArg> args) noexcept
    : tracer_(t), name_(name), cat_(cat), args_(std::move(args)) {
  if (tracer_ != nullptr) start_us_ = tracer_->now_us();
}

TraceSpan::~TraceSpan() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->now_us();
  tracer_->complete(name_, cat_, start_us_, end - start_us_,
                    std::move(args_));
}

void TraceSpan::set_args(std::vector<TraceArg> args) {
  args_ = std::move(args);
}

}  // namespace starcdn::obs
