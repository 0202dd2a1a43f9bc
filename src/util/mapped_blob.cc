#include "util/mapped_blob.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#define REACH_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define REACH_HAS_MMAP 0
#endif

namespace reach {

StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::CreateOwned(
    size_t size, std::string path,
    const std::function<Status(std::span<std::byte>)>& fill) {
  std::byte* data = nullptr;
  if (size > 0) {
#if REACH_HAS_MMAP
    // An anonymous mapping, not malloc: pages are backed only once `fill`
    // writes them, and freeing a multi-megabyte malloc chunk would raise
    // glibc's dynamic mmap threshold, moving the process's later large
    // allocations onto the fragmenting heap (+43 MB peak RSS over a
    // benchmark's repeated cit-Patents builds when Seal used malloc).
    void* addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    data = addr == MAP_FAILED ? nullptr : static_cast<std::byte*>(addr);
#else
    // Every backing promises this alignment (mapped_blob.h; mmap is
    // page-aligned); formats rely on it for in-place uint64_t section
    // starts. aligned_alloc requires the size to be a multiple of it.
    constexpr size_t kBlobAlignment = 64;
    const size_t padded =
        (size + kBlobAlignment - 1) / kBlobAlignment * kBlobAlignment;
    data = static_cast<std::byte*>(std::aligned_alloc(kBlobAlignment, padded));
#endif
    if (data == nullptr) {
      return Status::ResourceExhausted("cannot allocate " +
                                       std::to_string(size) + " bytes for " +
                                       (path.empty() ? "a heap blob" : path));
    }
  }
  std::shared_ptr<MappedBlob> blob(new MappedBlob());
  blob->data_ = data;
  blob->size_ = size;
  blob->mapped_ = false;
  blob->path_ = std::move(path);
  // On failure the blob's destructor releases the region.
  REACH_RETURN_IF_ERROR(fill({data, size}));
  return std::shared_ptr<const MappedBlob>(std::move(blob));
}

StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::ReadWholeFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0 || !in) {
    return Status::IOError("cannot determine size of " + path);
  }
  return CreateOwned(
      static_cast<size_t>(end), path,
      [&in, &path](std::span<std::byte> bytes) -> Status {
        const auto size = static_cast<std::streamsize>(bytes.size());
        in.read(reinterpret_cast<char*>(bytes.data()), size);
        if (!in || in.gcount() != size) {
          return Status::IOError("short read of " + path);
        }
        return Status::OK();
      });
}

#if REACH_HAS_MMAP
StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::MapWholeFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status =
        Status::IOError("cannot stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError(path + " is not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const std::byte* data = nullptr;
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const Status status =
          Status::IOError("mmap " + path + ": " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    // Query-order page touches are random in file order; don't let
    // readahead drag the whole index in on the first lookup. Advisory
    // only — a failure changes performance, never correctness.
    (void)::madvise(addr, size, MADV_RANDOM);
    data = static_cast<const std::byte*>(addr);
  }
  // The mapping persists after close(2); keeping no fd means RELOAD can
  // replace the file on disk while old queries still read the old pages.
  ::close(fd);
  std::shared_ptr<MappedBlob> blob(new MappedBlob());
  blob->data_ = data;
  blob->size_ = size;
  blob->mapped_ = true;
  blob->path_ = path;
  return std::shared_ptr<const MappedBlob>(std::move(blob));
}
#endif  // REACH_HAS_MMAP

StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::Open(
    const std::string& path) {
#if REACH_HAS_MMAP
  StatusOr<std::shared_ptr<const MappedBlob>> mapped = MapWholeFile(path);
  if (mapped.ok()) return mapped;
  // Graceful fallback: an exotic filesystem that refuses mmap still loads
  // (the caller can tell via mapped()). A missing file fails either way.
#endif
  return ReadWholeFile(path);
}

StatusOr<std::shared_ptr<const MappedBlob>> MappedBlob::OpenOwned(
    const std::string& path) {
  return ReadWholeFile(path);
}

bool MappedBlob::PlatformSupportsMmap() { return REACH_HAS_MMAP != 0; }

MappedBlob::~MappedBlob() {
  if (data_ == nullptr) return;
#if REACH_HAS_MMAP
  // A file mapping or CreateOwned's anonymous one.
  ::munmap(const_cast<std::byte*>(data_), size_);
#else
  std::free(const_cast<std::byte*>(data_));
#endif
}

}  // namespace reach
