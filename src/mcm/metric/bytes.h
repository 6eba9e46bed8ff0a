// Little byte-stream reader/writer used to serialize index nodes into
// fixed-size storage pages. Host-endian; the page files produced by this
// library are not meant to be portable across architectures.

#ifndef MCM_METRIC_BYTES_H_
#define MCM_METRIC_BYTES_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcm {

/// Appends primitive values to a growable byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = out_->size();
    out_->resize(offset + sizeof(T));
    std::memcpy(out_->data() + offset, &value, sizeof(T));
  }

  void PutBytes(const void* data, size_t size) {
    const size_t offset = out_->size();
    out_->resize(offset + size);
    std::memcpy(out_->data() + offset, data, size);
  }

  void PutString(const std::string& s) {
    Put<uint32_t>(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  size_t size() const { return out_->size(); }

 private:
  std::vector<uint8_t>* out_;
};

/// Reads primitive values from a byte buffer; throws on overrun.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    Require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Reads a uint32_t element count and checks that `count` elements of at
  /// least `min_bytes` bytes each still fit in the buffer, so a corrupt
  /// count throws std::out_of_range before anything is sized from it.
  uint32_t GetCount(size_t min_bytes) {
    const uint32_t count = Get<uint32_t>();
    if (min_bytes > 0 && count > remaining() / min_bytes) {
      throw std::out_of_range("ByteReader: read past end of buffer");
    }
    return count;
  }

  std::string GetString() {
    std::string s;
    GetString(&s);
    return s;
  }

  /// In-place GetString(): reuses `out`'s buffer.
  void GetString(std::string* out) {
    const uint32_t len = GetCount(1);
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
  }

  void GetBytes(void* out, size_t size) {
    Require(size);
    if (size == 0) return;  // `out` may be null (an empty vector's data()).
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  void Require(size_t bytes) const {
    if (bytes > size_ - pos_) {
      throw std::out_of_range("ByteReader: read past end of buffer");
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace mcm

#endif  // MCM_METRIC_BYTES_H_
