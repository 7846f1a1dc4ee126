#include "tensor/serialize.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace rotom {

namespace {

// Largest tensor rank a reader accepts; no model tensor comes close.
constexpr uint64_t kMaxRank = 8;

}  // namespace

void ByteWriter::TensorEntry(const Tensor& tensor) {
  Pod<uint64_t>(tensor.shape().size());
  for (int64_t d : tensor.shape()) Pod<int64_t>(d);
  Bytes(tensor.data(), sizeof(float) * tensor.size());
}

bool ByteReader::String(std::string* out) {
  uint64_t size = 0;
  if (!Pod(&size) || remaining() < size) return false;
  out->assign(bytes_.data() + cursor_, size);
  cursor_ += size;
  return true;
}

bool ByteReader::Bytes(void* data, size_t size) {
  if (remaining() < size) return false;
  std::memcpy(data, bytes_.data() + cursor_, size);
  cursor_ += size;
  return true;
}

Status ByteReader::TensorEntry(Tensor* out) {
  uint64_t rank = 0;
  if (!Pod(&rank) || rank < 1 || rank > kMaxRank) {
    return Status::Error("bad tensor rank");
  }
  std::vector<int64_t> shape(rank);
  for (int64_t& d : shape) {
    if (!Pod(&d) || d < 1) return Status::Error("bad tensor shape");
  }
  // Every element is 4 bytes: a count past the bytes left is corruption,
  // caught before allocating (and before the product can overflow).
  const uint64_t max_numel = remaining() / sizeof(float);
  uint64_t numel = 1;
  for (int64_t d : shape) {
    if (static_cast<uint64_t>(d) > max_numel / numel) {
      return Status::Error("truncated tensor data");
    }
    numel *= static_cast<uint64_t>(d);
  }
  Tensor tensor(std::move(shape));
  if (!Bytes(tensor.data(), sizeof(float) * numel)) {
    return Status::Error("truncated tensor data");
  }
  *out = std::move(tensor);
  return Status::Ok();
}

StatusOr<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::Error("cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Error("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return MappedFile();
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps the pages referenced; the descriptor is not needed
  // after mmap succeeds (or fails).
  ::close(fd);
  if (data == MAP_FAILED) return Status::Error("mmap failed for " + path);
  return MappedFile(static_cast<const char*>(data), size);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

Status WriteFileAtomic(const std::string& path,
                       std::initializer_list<std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) return Status::Error("cannot open " + tmp + " for writing");
  bool ok = true;
  for (std::string_view part : parts) {
    while (ok && !part.empty()) {
      const ssize_t n = ::write(fd, part.data(), part.size());
      if (n < 0 && errno == EINTR) continue;
      ok = n > 0;
      if (ok) part.remove_prefix(static_cast<size_t>(n));
    }
  }
  ok = ::close(fd) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Error("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace rotom
