#include "trace/trace_io.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/csv.h"

namespace starcdn::trace {

namespace {

constexpr char kMagic[8] = {'S', 'C', 'D', 'N', 'T', 'R', 'C', '1'};
constexpr char kStreamMagic[8] = {'S', 'C', 'D', 'N', 'S', 'T', 'R', '1'};

template <typename T>
void put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::ifstream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("trace read: truncated file");
  return v;
}

/// On-disk bytes per request in both formats: f64 timestamp, u64 object,
/// u64 size, u16 location, unpadded.
constexpr std::uint64_t kRequestBytes = sizeof(double) + sizeof(ObjectId) +
                                        sizeof(Bytes) + sizeof(std::uint16_t);

/// Throw `what` unless `count` requests fit in the bytes left after the
/// read position, so a corrupt count is caught before it sizes a buffer.
void check_count(std::ifstream& in, std::uint64_t count, const char* what) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  if (!in || count > static_cast<std::uint64_t>(end - here) / kRequestBytes) {
    throw std::runtime_error(what);
  }
}

}  // namespace

void write_binary(const LocationTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_binary: cannot open " + path);
  out.write(kMagic, sizeof kMagic);
  put(out, trace.location);
  const auto name_len = static_cast<std::uint16_t>(trace.location_name.size());
  put(out, name_len);
  out.write(trace.location_name.data(), name_len);
  put(out, static_cast<std::uint64_t>(trace.requests.size()));
  for (const auto& r : trace.requests) {
    put(out, r.timestamp_s);
    put(out, r.object);
    put(out, r.size);
    put(out, r.location);
  }
  if (!out) throw std::runtime_error("write_binary: write failed " + path);
}

LocationTrace read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_binary: cannot open " + path);
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("read_binary: bad magic in " + path);
  }
  LocationTrace t;
  t.location = get<std::uint16_t>(in);
  const auto name_len = get<std::uint16_t>(in);
  t.location_name.resize(name_len);
  in.read(t.location_name.data(), name_len);
  const auto count = get<std::uint64_t>(in);
  check_count(in, count, "trace read: truncated file");
  t.requests.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Request r;
    r.timestamp_s = get<double>(in);
    r.object = get<ObjectId>(in);
    r.size = get<Bytes>(in);
    r.location = get<std::uint16_t>(in);
    t.requests.push_back(r);
  }
  return t;
}

namespace {

template <typename T>
void put_array(std::ofstream& out, const std::vector<T>& v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
void get_array(std::ifstream& in, std::vector<T>& v, std::size_t n) {
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw std::runtime_error("trace stream read: truncated file");
}

class FileRequestStream final : public RequestStream {
 public:
  explicit FileRequestStream(const std::string& path)
      : in_(path, std::ios::binary) {
    if (!in_) {
      throw std::runtime_error("open_binary_stream: cannot open " + path);
    }
    char magic[8];
    in_.read(magic, sizeof magic);
    if (!in_ || std::memcmp(magic, kStreamMagic, sizeof kStreamMagic) != 0) {
      throw std::runtime_error("open_binary_stream: bad magic in " + path);
    }
    total_ = get<std::uint64_t>(in_);
  }

  [[nodiscard]] bool next(RequestBlock& out) override {
    out.clear();
    const auto n = get<std::uint32_t>(in_);
    if (n == 0) return false;
    check_count(in_, n, "trace stream read: truncated file");
    get_array(in_, out.timestamp_s, n);
    get_array(in_, out.object, n);
    get_array(in_, out.size, n);
    get_array(in_, out.location, n);
    return true;
  }

  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return total_;
  }

 private:
  std::ifstream in_;
  std::uint64_t total_ = 0;
};

}  // namespace

void write_binary_stream(RequestStream& stream, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_binary_stream: cannot open " + path);
  }
  out.write(kStreamMagic, sizeof kStreamMagic);
  // Total request count, patched in after the terminating zero block —
  // the actual drained count, not the stream's (optional) hint.
  const auto total_at = out.tellp();
  put(out, std::uint64_t{0});
  std::uint64_t total = 0;
  RequestBlock block;
  while (stream.next(block)) {
    if (block.empty()) continue;
    put(out, static_cast<std::uint32_t>(block.count()));
    put_array(out, block.timestamp_s);
    put_array(out, block.object);
    put_array(out, block.size);
    put_array(out, block.location);
    total += block.count();
  }
  put(out, std::uint32_t{0});
  out.seekp(total_at);
  put(out, total);
  if (!out) {
    throw std::runtime_error("write_binary_stream: write failed " + path);
  }
}

std::unique_ptr<RequestStream> open_binary_stream(const std::string& path) {
  return std::make_unique<FileRequestStream>(path);
}

void write_csv(const LocationTrace& trace, const std::string& path) {
  util::CsvWriter w(path);
  w.row({"timestamp_s", "object", "size", "location"});
  for (const auto& r : trace.requests) {
    w.row({std::to_string(r.timestamp_s), std::to_string(r.object),
           std::to_string(r.size), std::to_string(r.location)});
  }
}

LocationTrace read_csv_trace(const std::string& path) {
  const auto rows = util::read_csv(path);
  LocationTrace t;
  for (std::size_t i = 1; i < rows.size(); ++i) {  // skip header
    const auto& row = rows[i];
    if (row.size() < 4) continue;
    Request r;
    r.timestamp_s = std::stod(row[0]);
    r.object = std::stoull(row[1]);
    r.size = std::stoull(row[2]);
    r.location = static_cast<std::uint16_t>(std::stoul(row[3]));
    t.requests.push_back(r);
  }
  if (!t.requests.empty()) t.location = t.requests.front().location;
  return t;
}

}  // namespace starcdn::trace
