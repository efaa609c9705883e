#include "bsp/trace_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace nobl {
namespace {

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — table-driven, no
// external dependency.

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::uint32_t crc32(const unsigned char* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives. Unsigned LEB128, at most 10 bytes for 64 bits;
// zigzag maps the two's-complement delta so small magnitudes of either sign
// pack into one byte.

void put_varint(std::vector<unsigned char>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<unsigned char>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<unsigned char>(value));
}

std::uint64_t zigzag_encode(std::uint64_t delta) {
  // Interpret the mod-2^64 delta as signed and fold the sign into bit 0.
  const auto s = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(s) << 1) ^
         static_cast<std::uint64_t>(s >> 63);
}

std::uint64_t zigzag_decode(std::uint64_t coded) {
  return (coded >> 1) ^ (~(coded & 1) + 1);
}

void put_u16(std::vector<unsigned char>& out, std::uint16_t value) {
  out.push_back(static_cast<unsigned char>(value & 0xFFu));
  out.push_back(static_cast<unsigned char>(value >> 8));
}

void put_u32(std::vector<unsigned char>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>(value >> (8 * i)));
  }
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>(value >> (8 * i)));
  }
}

/// Bounded forward cursor over the image; every read checks the remaining
/// bytes and reports the exact offset on a miss.
struct Cursor {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("binary trace: " + what + " at byte " +
                                std::to_string(pos));
  }

  std::uint8_t u8(const char* what) {
    if (pos >= size) fail(std::string("truncated ") + what);
    return data[pos++];
  }

  std::uint32_t u32(const char* what) {
    if (size - pos < 4) fail(std::string("truncated ") + what);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return value;
  }

  std::uint64_t u64(const char* what) {
    if (size - pos < 8) fail(std::string("truncated ") + what);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return value;
  }

  std::uint64_t varint(const char* what) {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
      if (pos >= size) fail(std::string("truncated ") + what);
      const unsigned char byte = data[pos++];
      if (shift == 63 && (byte & 0xFEu) != 0) {
        fail(std::string("varint overflows 64 bits in ") + what);
      }
      value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return value;
    }
    fail(std::string("varint too long in ") + what);
  }
};

constexpr std::size_t kHeaderBytes = 12;
constexpr unsigned char kFooterSentinel = 0xFF;

/// Parse and validate the 12-byte header; returns log_v.
unsigned parse_header(Cursor& cursor) {
  if (cursor.size < kHeaderBytes) {
    cursor.pos = cursor.size;
    cursor.fail("truncated header");
  }
  if (std::memcmp(cursor.data, kTraceBinMagic, 4) != 0) {
    throw std::invalid_argument(
        "binary trace: bad magic at byte 0 (expected \"NBLT\")");
  }
  cursor.pos = 4;
  const std::uint16_t version =
      static_cast<std::uint16_t>(cursor.u8("version")) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(cursor.u8(
                                     "version"))
                                 << 8);
  if (version != kTraceBinVersion) {
    throw std::invalid_argument(
        "binary trace: unsupported version " + std::to_string(version) +
        " at byte 4 (this reader understands version " +
        std::to_string(kTraceBinVersion) + ")");
  }
  const std::uint16_t log_v =
      static_cast<std::uint16_t>(cursor.u8("log_v")) |
      static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(cursor.u8("log_v")) << 8);
  if (log_v > 63) {
    throw std::invalid_argument("binary trace: log_v " +
                                std::to_string(log_v) +
                                " out of range at byte 6");
  }
  const std::uint32_t stored = cursor.u32("header checksum");
  const std::uint32_t computed = crc32(cursor.data, 8);
  if (stored != computed) {
    throw std::invalid_argument(
        "binary trace: header checksum mismatch at byte 8");
  }
  return log_v;
}

/// Walk every block (and the footer) of an image whose header has already
/// been parsed, invoking `fn` once per decoded superstep. Exactly one
/// SuperstepRecord is live at any point; `*live_peak` (when non-null)
/// records the instrumented maximum.
void walk_blocks(const unsigned char* data, std::size_t size, unsigned log_v,
                 const std::function<void(const SuperstepRecord&)>& fn,
                 std::size_t* live_peak) {
  Cursor cursor{data, size, kHeaderBytes};
  const unsigned bound = label_bound(log_v);
  SuperstepRecord record;
  record.degree.assign(log_v + 1u, 0);
  std::vector<std::uint64_t> prev(log_v + 1u, 0);
  if (live_peak != nullptr) *live_peak = std::max<std::size_t>(*live_peak, 1);
  std::uint64_t supersteps = 0;
  std::uint64_t total_messages = 0;
  for (;;) {
    if (cursor.pos >= size) cursor.fail("truncated file: missing footer");
    if (data[cursor.pos] == kFooterSentinel) break;
    const std::size_t block_start = cursor.pos;
    const std::uint64_t label = cursor.varint("block label");
    if (label >= bound) {
      cursor.pos = block_start;
      cursor.fail("superstep label " + std::to_string(label) +
                  " out of range in block");
    }
    record.label = static_cast<unsigned>(label);
    record.messages = cursor.varint("block message count");
    for (unsigned j = 1; j <= log_v; ++j) {
      const std::uint64_t delta = zigzag_decode(cursor.varint("degree delta"));
      record.degree[j] = prev[j] + delta;  // mod 2^64 by construction
    }
    const std::size_t payload_end = cursor.pos;
    const std::uint32_t stored = cursor.u32("block checksum");
    const std::uint32_t computed =
        crc32(data + block_start, payload_end - block_start);
    if (stored != computed) {
      cursor.pos = block_start;
      cursor.fail("block checksum mismatch");
    }
    std::copy(record.degree.begin(), record.degree.end(), prev.begin());
    ++supersteps;
    total_messages += record.messages;
    fn(record);
  }
  const std::size_t footer_start = cursor.pos;
  cursor.u8("footer sentinel");
  const std::uint64_t footer_supersteps = cursor.u64("footer superstep count");
  const std::uint64_t footer_messages = cursor.u64("footer message total");
  const std::size_t footer_payload_end = cursor.pos;
  const std::uint32_t stored = cursor.u32("footer checksum");
  const std::uint32_t computed =
      crc32(data + footer_start, footer_payload_end - footer_start);
  if (stored != computed) {
    cursor.pos = footer_start;
    cursor.fail("footer checksum mismatch");
  }
  if (footer_supersteps != supersteps) {
    cursor.pos = footer_start;
    cursor.fail("footer superstep count " + std::to_string(footer_supersteps) +
                " does not match the " + std::to_string(supersteps) +
                " blocks read");
  }
  if (footer_messages != total_messages) {
    cursor.pos = footer_start;
    cursor.fail("footer message total mismatch");
  }
  if (cursor.pos != size) {
    cursor.fail("trailing bytes after footer");
  }
}

}  // namespace

bool looks_like_trace_bin(const std::string& bytes) {
  return bytes.size() >= 4 && std::memcmp(bytes.data(), kTraceBinMagic, 4) == 0;
}

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(std::ostream& os, unsigned log_v)
    : os_(&os), log_v_(log_v) {
  if (log_v > 63) {
    throw std::invalid_argument("TraceWriter: log_v out of range");
  }
  prev_degree_.assign(log_v + 1u, 0);
  scratch_.clear();
  for (const unsigned char byte : kTraceBinMagic) scratch_.push_back(byte);
  put_u16(scratch_, kTraceBinVersion);
  put_u16(scratch_, static_cast<std::uint16_t>(log_v));
  put_u32(scratch_, crc32(scratch_.data(), scratch_.size()));
  os_->write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  bytes_ += scratch_.size();
}

TraceWriter::~TraceWriter() {
  if (!finished_ && os_ != nullptr) {
    try {
      finish();
    } catch (...) {
      // A failing stream already carries the error in its state; never
      // throw from a destructor.
    }
  }
}

void TraceWriter::append(const SuperstepRecord& record) {
  if (finished_) {
    throw std::logic_error("TraceWriter: append after finish");
  }
  if (record.degree.size() != static_cast<std::size_t>(log_v_) + 1) {
    throw std::invalid_argument("TraceWriter: degree vector size mismatch");
  }
  if (record.label >= label_bound(log_v_)) {
    throw std::invalid_argument("TraceWriter: label out of range");
  }
  if (record.degree[0] != 0) {
    throw std::invalid_argument("TraceWriter: nonzero degree at fold p=1");
  }
  scratch_.clear();
  put_varint(scratch_, record.label);
  put_varint(scratch_, record.messages);
  for (unsigned j = 1; j <= log_v_; ++j) {
    put_varint(scratch_, zigzag_encode(record.degree[j] - prev_degree_[j]));
    prev_degree_[j] = record.degree[j];
  }
  put_u32(scratch_, crc32(scratch_.data(), scratch_.size()));
  os_->write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  bytes_ += scratch_.size();
  ++supersteps_;
  total_messages_ += record.messages;
}

void TraceWriter::finish() {
  if (finished_) return;
  scratch_.clear();
  scratch_.push_back(kFooterSentinel);
  put_u64(scratch_, supersteps_);
  put_u64(scratch_, total_messages_);
  put_u32(scratch_, crc32(scratch_.data(), scratch_.size()));
  os_->write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  bytes_ += scratch_.size();
  finished_ = true;
}

std::size_t TraceWriter::resident_bytes() const noexcept {
  return prev_degree_.capacity() * sizeof(std::uint64_t) +
         scratch_.capacity() * sizeof(unsigned char);
}

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::invalid_argument("TraceReader: cannot open \"" + path + "\"");
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::invalid_argument("TraceReader: cannot stat \"" + path + "\"");
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    throw std::invalid_argument(
        "binary trace: truncated header at byte 0 (empty file \"" + path +
        "\")");
  }
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    throw std::invalid_argument("TraceReader: cannot mmap \"" + path + "\"");
  }
  map_ = map;
  map_size_ = size_;
  data_ = static_cast<const unsigned char*>(map);
  try {
    build_index();
  } catch (...) {
    unmap();
    throw;
  }
}

TraceReader TraceReader::from_bytes(std::string bytes) {
  TraceReader reader;
  reader.owned_ = std::move(bytes);
  reader.data_ = reinterpret_cast<const unsigned char*>(reader.owned_.data());
  reader.size_ = reader.owned_.size();
  reader.build_index();
  return reader;
}

TraceReader::~TraceReader() { unmap(); }

TraceReader::TraceReader(TraceReader&& other) noexcept
    : FoldTables(std::move(other)),
      owned_(std::move(other.owned_)),
      map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      size_(other.size_),
      peak_live_blocks_(other.peak_live_blocks_) {
  data_ = map_ != nullptr
              ? static_cast<const unsigned char*>(map_)
              : reinterpret_cast<const unsigned char*>(owned_.data());
  other.data_ = nullptr;
  other.size_ = 0;
}

TraceReader& TraceReader::operator=(TraceReader&& other) noexcept {
  if (this == &other) return *this;
  unmap();
  FoldTables::operator=(std::move(other));
  owned_ = std::move(other.owned_);
  map_ = std::exchange(other.map_, nullptr);
  map_size_ = std::exchange(other.map_size_, 0);
  size_ = other.size_;
  peak_live_blocks_ = other.peak_live_blocks_;
  data_ = map_ != nullptr
              ? static_cast<const unsigned char*>(map_)
              : reinterpret_cast<const unsigned char*>(owned_.data());
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

void TraceReader::unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
}

void TraceReader::build_index() {
  Cursor cursor{data_, size_, 0};
  FoldTables::operator=(FoldTables(parse_header(cursor)));
  walk_blocks(
      data_, size_, log_v(),
      [this](const SuperstepRecord& record) { add(record); },
      &peak_live_blocks_);
}

void TraceReader::for_each_step(
    const std::function<void(const SuperstepRecord&)>& fn) const {
  walk_blocks(data_, size_, log_v(), fn, nullptr);
}

Trace TraceReader::materialize() const {
  Trace trace(log_v());
  for_each_step([&](const SuperstepRecord& record) { trace.append(record); });
  return trace;
}

}  // namespace nobl
