#ifndef ROTOM_TENSOR_SERIALIZE_H_
#define ROTOM_TENSOR_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace rotom {

/// A named collection of tensors (model weights, optimizer state).
using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// The one byte codec of the binary formats (RSNAP snapshots, RTCK1
/// checkpoints). Integers are fixed-width little-endian and floats raw
/// IEEE-754 bytes (the library only targets little-endian hosts), so a
/// value round-trips bit-identically. A string is a u64 length then its
/// bytes; a tensor entry is a u64 rank, i64 dims, then the f32 data.
///
/// ByteWriter appends to an in-memory buffer that WriteFileAtomic() puts
/// on disk.
class ByteWriter {
 public:
  template <typename T>
  void Pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    buffer_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  void String(std::string_view s) {
    Pod<uint64_t>(s.size());
    buffer_.append(s);
  }

  void Bytes(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  void TensorEntry(const Tensor& tensor);

  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Bounds-checked reader over a byte view (a MappedFile or a buffer the
/// caller keeps alive). Every accessor returns false, or an error Status,
/// once the cursor would run past the end, and every length or count read
/// from the bytes is checked against what is left before anything is
/// allocated for it, so corrupt input becomes a Status instead of an
/// out-of-bounds read or an absurd allocation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Pod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return true;
  }

  bool String(std::string* out);
  bool Bytes(void* data, size_t size);

  /// Reads a tensor entry. Errors: "bad tensor rank" (not 1 to 8 dims),
  /// "bad tensor shape" (a dim below 1, or the dims run past the end) and
  /// "truncated tensor data" (more elements than bytes left).
  Status TensorEntry(Tensor* out);

  size_t remaining() const { return bytes_.size() - cursor_; }

 private:
  std::string_view bytes_;
  size_t cursor_ = 0;
};

/// A whole file mapped read-only with mmap(2); unmapped on destruction.
/// Pages are read in lazily as a reader walks them. An empty file maps to
/// an empty view.
class MappedFile {
 public:
  /// Errors: "cannot open <path>" and mmap failures.
  static StatusOr<MappedFile> Open(const std::string& path);

  // Public only because StatusOr<MappedFile> default-constructs its value
  // slot; an empty MappedFile maps nothing.
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile& operator=(MappedFile&&) = delete;
  ~MappedFile();

  std::string_view bytes() const { return {data_, size_}; }

 private:
  MappedFile(const char* data, size_t size) : data_(data), size_(size) {}

  const char* data_ = nullptr;
  size_t size_ = 0;
};

/// Writes the concatenation of `parts` to "<path>.tmp" and renames it over
/// `path`, so a reader (or a mapping) of `path` sees the old file or the
/// new one, never a torn one. The temporary is removed on failure. There
/// is no fsync: the write survives a killed process, not a power cut.
Status WriteFileAtomic(const std::string& path,
                       std::initializer_list<std::string_view> parts);

}  // namespace rotom

#endif  // ROTOM_TENSOR_SERIALIZE_H_
