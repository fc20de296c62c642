// Little-endian binary encode/decode over in-memory byte buffers, shared by
// the persistence layer (src/persist/) and the wire protocol (src/net/).
//
// ByteWriter appends fixed-width integers, length-prefixed strings, and
// POD vectors to a growable buffer. ByteReader is the bounds-checked
// mirror: every Read* reports truncation through its bool return instead
// of reading past the end — both the snapshot/delta readers and the frame
// decoder are fed attacker-controlled bytes, so nothing here may abort or
// overflow on malformed input.
//
// All multi-byte values are little-endian on the wire and on disk,
// regardless of host endianness.

#ifndef ATR_UTIL_BINARY_IO_H_
#define ATR_UTIL_BINARY_IO_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace atr {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
// Used as the integrity checksum of snapshot files, delta-log records, and
// nothing security-sensitive (it detects corruption, not tampering).
uint32_t Crc32(const uint8_t* data, size_t size);
inline uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32(data.data(), data.size());
}

class ByteWriter {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer_.push_back(uint8_t(v >> (8 * i)));
  }
  void WriteU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buffer_.push_back(uint8_t(v >> (8 * i)));
  }
  void WriteDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  void WriteBytes(const uint8_t* data, size_t size) {
    // Growing ahead of the insert (geometrically, as the insert would)
    // keeps GCC 12 from flagging the insert's reallocation path with a
    // false -Wstringop-overread once this is inlined.
    if (buffer_.capacity() - buffer_.size() < size) {
      buffer_.reserve(std::max(2 * buffer_.capacity(), buffer_.size() + size));
    }
    buffer_.insert(buffer_.end(), data, data + size);
  }
  // u32 length prefix + raw bytes.
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void WriteU32Vector(const std::vector<uint32_t>& v) {
    WriteU32(static_cast<uint32_t>(v.size()));
    for (const uint32_t x : v) WriteU32(x);
  }
  void WriteU64Vector(const std::vector<uint64_t>& v) {
    WriteU32(static_cast<uint32_t>(v.size()));
    for (const uint64_t x : v) WriteU64(x);
  }

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

// Bounds-checked sequential reader over a borrowed byte span. Every Read*
// returns false (leaving the output untouched and the cursor unmoved) when
// fewer bytes remain than requested; `ok()` stays false afterwards so a
// caller can batch reads and check once.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::span<const uint8_t> data)
      : ByteReader(data.data(), data.size()) {}
  explicit ByteReader(const std::vector<uint8_t>& data)
      : ByteReader(data.data(), data.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  bool ReadU8(uint8_t* out) {
    if (!Require(1)) return false;
    *out = data_[pos_++];
    return true;
  }
  bool ReadU32(uint32_t* out) {
    if (!Require(4)) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return true;
  }
  bool ReadU64(uint64_t* out) {
    if (!Require(8)) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return true;
  }
  bool ReadDouble(double* out) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
  bool ReadString(std::string* out) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (!Require(len)) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }
  // Element-count prefixed vectors. The count is validated against the
  // bytes actually remaining BEFORE any allocation, so a hostile
  // 0xffffffff count cannot drive a multi-GiB reserve.
  bool ReadU32Vector(std::vector<uint32_t>* out) {
    uint32_t count = 0;
    if (!ReadU32(&count)) return false;
    if (remaining() / 4 < count) return Fail();
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) ReadU32(&(*out)[i]);
    return ok_;
  }
  bool ReadU64Vector(std::vector<uint64_t>* out) {
    uint32_t count = 0;
    if (!ReadU32(&count)) return false;
    if (remaining() / 8 < count) return Fail();
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) ReadU64(&(*out)[i]);
    return ok_;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || size_ - pos_ < n) return Fail();
    return true;
  }
  bool Fail() {
    ok_ = false;
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace atr

#endif  // ATR_UTIL_BINARY_IO_H_
