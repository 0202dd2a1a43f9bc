#include "core/label_store.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

namespace reach {

namespace {

// "RLSTORE3": the sealed single-blob format. Version 3 made every section
// 8-byte aligned relative to the blob start (offsets arrays up front, one
// keys array per side, zero pads) so a mapped file can be served in place;
// version 2 interleaved per-row counts with keys and was parse-only.
// Version 2 replaced the legacy per-vector HopLabeling dump ("LABEL01"),
// whose reader resized from unvalidated untrusted size fields.
constexpr uint64_t kMagic = 0x524c53544f524533ULL;

// Fixed header: magic, n, total_out, total_in.
constexpr size_t kHeaderBytes = 4 * sizeof(uint64_t);

// Sections of a hostile blob are read in bounded slices so a forged count
// cannot make us allocate its full claimed size before the stream runs
// dry (same discipline as graph_io's ReadBinary).
constexpr size_t kKeySliceEntries = 1 << 16;
constexpr size_t kOffsetSliceEntries = 1 << 13;

// A keys section of `total` u32 entries is zero-padded to the next
// 8-byte boundary so the section after it stays aligned.
size_t KeysPadBytes(uint64_t total) {
  return (total % 2) * sizeof(uint32_t);
}

// Impossibility bound shared by both readers: labels are strictly
// ascending keys < n, so a side holds at most n per vertex. Division
// sidesteps the n * n overflow for n near 2^32.
bool SideTotalImpossible(uint64_t n, uint64_t total) {
  return n == 0 ? total != 0 : total / n > n;
}

Status ReadOffsets(std::istream& in, size_t n, uint64_t total,
                   const char* side, std::vector<uint64_t>* offsets) {
  // No n-sized pre-allocation from the untrusted header: the array grows
  // one bounded slice at a time, so a forged n wastes at most one slice
  // before the read failure surfaces.
  offsets->clear();
  uint64_t prev = 0;
  std::vector<uint64_t> slice;
  for (size_t remaining = n + 1; remaining > 0;) {
    const size_t chunk = std::min(remaining, kOffsetSliceEntries);
    slice.resize(chunk);
    in.read(reinterpret_cast<char*>(slice.data()),
            static_cast<std::streamsize>(chunk * sizeof(uint64_t)));
    if (!in) {
      return Status::Corruption("truncated label store " + std::string(side) +
                                " offsets");
    }
    for (const uint64_t off : slice) {
      if (offsets->empty() ? off != 0 : off < prev) {
        return Status::Corruption("label store " + std::string(side) +
                                  " offsets not monotone from zero");
      }
      if (off > total) {
        return Status::Corruption("label store " + std::string(side) +
                                  " offset exceeds the declared total");
      }
      prev = off;
      offsets->push_back(off);
    }
    remaining -= chunk;
  }
  if (offsets->back() != total) {
    return Status::Corruption("label store " + std::string(side) +
                              " offsets end at " +
                              std::to_string(offsets->back()) +
                              ", header declared " + std::to_string(total));
  }
  return Status::OK();
}

Status ReadKeys(std::istream& in, size_t n, uint64_t total, const char* side,
                const std::vector<uint64_t>& offsets,
                std::vector<uint32_t>* keys) {
  keys->clear();
  keys->reserve(
      static_cast<size_t>(std::min<uint64_t>(total, kKeySliceEntries)));
  std::vector<uint32_t> slice;
  for (uint64_t remaining = total; remaining > 0;) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(remaining, kKeySliceEntries));
    slice.resize(chunk);
    in.read(reinterpret_cast<char*>(slice.data()),
            static_cast<std::streamsize>(chunk * sizeof(uint32_t)));
    if (!in) {
      return Status::Corruption("truncated label store " + std::string(side) +
                                " keys");
    }
    for (const uint32_t key : slice) {
      if (key >= n) {
        return Status::Corruption("label store " + std::string(side) +
                                  " key out of range");
      }
      keys->push_back(key);
    }
    remaining -= chunk;
  }
  // Per-row strict ascent, checked once the row boundaries are known.
  for (Vertex v = 0; v < n; ++v) {
    for (uint64_t i = offsets[v] + 1; i < offsets[v + 1]; ++i) {
      if ((*keys)[i - 1] >= (*keys)[i]) {
        return Status::Corruption("label store " + std::string(side) +
                                  " row " + std::to_string(v) +
                                  " keys not strictly ascending");
      }
    }
  }
  // The writer pads with zeros; anything else is not a blob it produced.
  char pad[sizeof(uint32_t)] = {};
  const size_t pad_bytes = KeysPadBytes(total);
  if (pad_bytes > 0) {
    in.read(pad, static_cast<std::streamsize>(pad_bytes));
    if (!in) {
      return Status::Corruption("truncated label store " + std::string(side) +
                                " padding");
    }
    for (size_t i = 0; i < pad_bytes; ++i) {
      if (pad[i] != 0) {
        return Status::Corruption("label store " + std::string(side) +
                                  " padding is not zero");
      }
    }
  }
  return Status::OK();
}

}  // namespace

LabelStore& LabelStore::operator=(const LabelStore& other) {
  if (this == &other) return *this;
  num_vertices_ = other.num_vertices_;
  sealed_ = other.sealed_;
  build_out_ = other.build_out_;
  build_in_ = other.build_in_;
  offsets_out_ = other.offsets_out_;
  offsets_in_ = other.offsets_in_;
  keys_out_ = other.keys_out_;
  keys_in_ = other.keys_in_;
  backing_ = other.backing_;
  if (sealed_ && backing_ == nullptr) {
    // The copied vectors live at new addresses; a mapped surface stays
    // valid because the blob is shared.
    RepointOwned();
  } else {
    off_out_ = other.off_out_;
    off_in_ = other.off_in_;
    key_out_ = other.key_out_;
    key_in_ = other.key_in_;
  }
  return *this;
}

LabelStore& LabelStore::operator=(LabelStore&& other) noexcept {
  if (this == &other) return *this;
  num_vertices_ = other.num_vertices_;
  sealed_ = other.sealed_;
  build_out_ = std::move(other.build_out_);
  build_in_ = std::move(other.build_in_);
  // Vector moves transfer the heap buffer, so the owned read surface keeps
  // pointing at live storage without re-pointing.
  offsets_out_ = std::move(other.offsets_out_);
  offsets_in_ = std::move(other.offsets_in_);
  keys_out_ = std::move(other.keys_out_);
  keys_in_ = std::move(other.keys_in_);
  backing_ = std::move(other.backing_);
  off_out_ = other.off_out_;
  off_in_ = other.off_in_;
  key_out_ = other.key_out_;
  key_in_ = other.key_in_;
  other.Clear();
  return *this;
}

void LabelStore::RepointOwned() {
  off_out_ = offsets_out_.data();
  off_in_ = offsets_in_.data();
  key_out_ = keys_out_.data();
  key_in_ = keys_in_.data();
}

void LabelStore::Clear() {
  num_vertices_ = 0;
  sealed_ = false;
  build_out_.clear();
  build_in_.clear();
  offsets_out_.clear();
  offsets_in_.clear();
  keys_out_.clear();
  keys_in_.clear();
  off_out_ = nullptr;
  off_in_ = nullptr;
  key_out_ = nullptr;
  key_in_ = nullptr;
  backing_.reset();
}

void LabelStore::Init(size_t num_vertices) {
  Clear();
  num_vertices_ = num_vertices;
  build_out_.assign(num_vertices, {});
  build_in_.assign(num_vertices, {});
}

void LabelStore::Seal() {
  if (sealed_) return;
  const size_t n = num_vertices_;
  const auto seal_side = [n](std::vector<std::vector<uint32_t>>* build,
                             std::vector<uint64_t>* offsets,
                             std::vector<uint32_t>* keys) {
    uint64_t total = 0;
    for (const auto& label : *build) total += label.size();
    // Exact-size allocations: after Seal, capacity == size on every array
    // so MemoryBytes() is the true footprint.
    offsets->clear();
    offsets->reserve(n + 1);
    keys->clear();
    keys->reserve(static_cast<size_t>(total));
    offsets->push_back(0);
    for (const auto& label : *build) {
      keys->insert(keys->end(), label.begin(), label.end());
      offsets->push_back(keys->size());
    }
    build->clear();
    build->shrink_to_fit();
  };
  seal_side(&build_out_, &offsets_out_, &keys_out_);
  seal_side(&build_in_, &offsets_in_, &keys_in_);
  sealed_ = true;
  RepointOwned();
}

void LabelStore::Unseal() {
  if (!sealed_) return;
  const size_t n = num_vertices_;
  // Copy out through the read surface, which serves owned and mapped
  // backings alike; a mapped store materializes here and drops the blob.
  std::vector<std::vector<uint32_t>> build_out(n);
  std::vector<std::vector<uint32_t>> build_in(n);
  for (Vertex v = 0; v < n; ++v) {
    const std::span<const uint32_t> out = Out(v);
    build_out[v].assign(out.begin(), out.end());
    const std::span<const uint32_t> in = In(v);
    build_in[v].assign(in.begin(), in.end());
  }
  build_out_ = std::move(build_out);
  build_in_ = std::move(build_in);
  offsets_out_.clear();
  offsets_out_.shrink_to_fit();
  offsets_in_.clear();
  offsets_in_.shrink_to_fit();
  keys_out_.clear();
  keys_out_.shrink_to_fit();
  keys_in_.clear();
  keys_in_.shrink_to_fit();
  off_out_ = nullptr;
  off_in_ = nullptr;
  key_out_ = nullptr;
  key_in_ = nullptr;
  backing_.reset();
  sealed_ = false;
}

uint64_t LabelStore::TotalEntries() const {
  if (sealed_) {
    return off_out_[num_vertices_] + off_in_[num_vertices_];
  }
  uint64_t total = 0;
  for (const auto& label : build_out_) total += label.size();
  for (const auto& label : build_in_) total += label.size();
  return total;
}

size_t LabelStore::MaxLabelSize() const {
  size_t max_size = 0;
  for (Vertex v = 0; v < num_vertices_; ++v) {
    max_size = std::max(max_size, Out(v).size() + In(v).size());
  }
  return max_size;
}

size_t LabelStore::MemoryBytes() const {
  if (sealed_) {
    // Exact: both backings address 2 offsets arrays + every key, nothing
    // else (owned vectors are shrunk to fit; the mapped region is sized
    // exactly by FromMapped's validation).
    return 2 * (num_vertices_ + 1) * sizeof(uint64_t) +
           static_cast<size_t>(TotalEntries()) * sizeof(uint32_t);
  }
  size_t bytes = (build_out_.capacity() + build_in_.capacity()) *
                 sizeof(std::vector<uint32_t>);
  for (const auto& label : build_out_) {
    bytes += label.capacity() * sizeof(uint32_t);
  }
  for (const auto& label : build_in_) {
    bytes += label.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

uint64_t LabelStore::SerializedBytes() const {
  uint64_t total_out = 0;
  uint64_t total_in = 0;
  for (Vertex v = 0; v < num_vertices_; ++v) {
    total_out += Out(v).size();
    total_in += In(v).size();
  }
  return kHeaderBytes + 2 * (num_vertices_ + 1) * sizeof(uint64_t) +
         total_out * sizeof(uint32_t) + KeysPadBytes(total_out) +
         total_in * sizeof(uint32_t) + KeysPadBytes(total_in);
}

Status LabelStore::Write(std::ostream& out) const {
  const uint64_t magic = kMagic;
  const uint64_t n = num_vertices_;
  uint64_t total_out = 0;
  uint64_t total_in = 0;
  for (Vertex v = 0; v < num_vertices_; ++v) {
    total_out += Out(v).size();
    total_in += In(v).size();
  }
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&total_out), sizeof(total_out));
  out.write(reinterpret_cast<const char*>(&total_in), sizeof(total_in));
  const char pad[sizeof(uint32_t)] = {};
  const auto write_side = [&](bool out_side, uint64_t total) {
    if (sealed_) {
      // Both sealed backings expose contiguous arrays: bulk writes.
      const uint64_t* offsets = out_side ? off_out_ : off_in_;
      const uint32_t* keys = out_side ? key_out_ : key_in_;
      out.write(reinterpret_cast<const char*>(offsets),
                static_cast<std::streamsize>((n + 1) * sizeof(uint64_t)));
      out.write(reinterpret_cast<const char*>(keys),
                static_cast<std::streamsize>(total * sizeof(uint32_t)));
    } else {
      uint64_t acc = 0;
      out.write(reinterpret_cast<const char*>(&acc), sizeof(acc));
      for (Vertex v = 0; v < num_vertices_; ++v) {
        acc += out_side ? Out(v).size() : In(v).size();
        out.write(reinterpret_cast<const char*>(&acc), sizeof(acc));
      }
      for (Vertex v = 0; v < num_vertices_; ++v) {
        const std::span<const uint32_t> label = out_side ? Out(v) : In(v);
        out.write(reinterpret_cast<const char*>(label.data()),
                  static_cast<std::streamsize>(label.size() *
                                               sizeof(uint32_t)));
      }
    }
    out.write(pad, static_cast<std::streamsize>(KeysPadBytes(total)));
  };
  write_side(/*out_side=*/true, total_out);
  write_side(/*out_side=*/false, total_in);
  if (!out) return Status::IOError("label store write failed");
  return Status::OK();
}

StatusOr<LabelStore> LabelStore::Read(std::istream& in) {
  uint64_t magic = 0;
  uint64_t n = 0;
  uint64_t total_out = 0;
  uint64_t total_in = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kMagic) {
    return Status::Corruption("bad label store magic");
  }
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&total_out), sizeof(total_out));
  in.read(reinterpret_cast<char*>(&total_in), sizeof(total_in));
  if (!in) return Status::Corruption("truncated label store header");
  // Strictly within the uint32 id space: n == 2^32 would leave no valid
  // key able to address the last vertex, and the id arithmetic below
  // assumes vertex ids fit uint32.
  if (n > static_cast<uint64_t>(UINT32_MAX)) {
    return Status::Corruption("label store vertex count " +
                              std::to_string(n) + " exceeds uint32 id space");
  }
  if (SideTotalImpossible(n, total_out) || SideTotalImpossible(n, total_in)) {
    return Status::Corruption("label store totals impossible for " +
                              std::to_string(n) + " vertices");
  }
  LabelStore store;
  store.num_vertices_ = static_cast<size_t>(n);
  store.sealed_ = true;
  REACH_RETURN_IF_ERROR(ReadOffsets(in, store.num_vertices_, total_out,
                                    "Lout", &store.offsets_out_));
  REACH_RETURN_IF_ERROR(ReadKeys(in, store.num_vertices_, total_out, "Lout",
                                 store.offsets_out_, &store.keys_out_));
  REACH_RETURN_IF_ERROR(ReadOffsets(in, store.num_vertices_, total_in, "Lin",
                                    &store.offsets_in_));
  REACH_RETURN_IF_ERROR(ReadKeys(in, store.num_vertices_, total_in, "Lin",
                                 store.offsets_in_, &store.keys_in_));
  if (in.peek() != std::istream::traits_type::eof()) {
    return Status::Corruption("trailing bytes after label store blob");
  }
  // The incremental reads grow with amortized slack; drop it so a loaded
  // store reports the same exact MemoryBytes() as a freshly sealed one.
  store.offsets_out_.shrink_to_fit();
  store.offsets_in_.shrink_to_fit();
  store.keys_out_.shrink_to_fit();
  store.keys_in_.shrink_to_fit();
  store.RepointOwned();
  return store;
}

StatusOr<LabelStore> LabelStore::FromMapped(MappedRegion region) {
  if (region.blob == nullptr) {
    return Status::InvalidArgument("label store region has no backing blob");
  }
  // The blob start is 64-byte aligned (MappedBlob contract); an 8-aligned
  // offset within it keeps every u64 section aligned for in-place reads.
  if (region.offset % sizeof(uint64_t) != 0) {
    return Status::Corruption("label store region offset " +
                              std::to_string(region.offset) +
                              " is not 8-byte aligned");
  }
  const std::span<const std::byte> bytes = region.bytes();
  // Every size check below runs BEFORE the bytes it justifies are touched:
  // the region boundary is the file boundary, and dereferencing past a
  // mapped file raises SIGBUS rather than failing gracefully.
  if (bytes.size() < kHeaderBytes) {
    return Status::Corruption("label store blob truncated before header");
  }
  uint64_t header[4];
  std::memcpy(header, bytes.data(), sizeof(header));
  const uint64_t magic = header[0];
  const uint64_t n = header[1];
  const uint64_t total_out = header[2];
  const uint64_t total_in = header[3];
  if (magic != kMagic) {
    // A foreign-endian file (or any older/foreign format) fails here: the
    // magic bytes are written local-endian, so a swapped file cannot match.
    return Status::Corruption("bad label store magic");
  }
  if (n > static_cast<uint64_t>(UINT32_MAX)) {
    return Status::Corruption("label store vertex count " +
                              std::to_string(n) + " exceeds uint32 id space");
  }
  if (SideTotalImpossible(n, total_out) || SideTotalImpossible(n, total_in)) {
    return Status::Corruption("label store totals impossible for " +
                              std::to_string(n) + " vertices");
  }
  // Overflow-safe sizing: each total is first bounded by the region size
  // (any larger value is truncation regardless), so the byte arithmetic
  // below stays far from uint64 wraparound.
  const uint64_t max_entries = bytes.size() / sizeof(uint32_t);
  if (total_out > max_entries || total_in > max_entries) {
    return Status::Corruption("label store blob truncated");
  }
  const uint64_t offsets_bytes = (n + 1) * sizeof(uint64_t);
  const uint64_t out_section = total_out * sizeof(uint32_t) +
                               KeysPadBytes(total_out);
  const uint64_t in_section = total_in * sizeof(uint32_t) +
                              KeysPadBytes(total_in);
  const uint64_t required =
      kHeaderBytes + 2 * offsets_bytes + out_section + in_section;
  // Exact: the label blob is always the final section of its file, so a
  // size mismatch means truncation or trailing bytes — both rejected.
  if (required != bytes.size()) {
    return Status::Corruption(
        "label store blob is " + std::to_string(bytes.size()) +
        " bytes, header implies " + std::to_string(required));
  }
  const std::byte* base = bytes.data();
  const uint64_t* off_out = reinterpret_cast<const uint64_t*>(
      base + kHeaderBytes);
  const uint32_t* key_out = reinterpret_cast<const uint32_t*>(
      base + kHeaderBytes + offsets_bytes);
  const uint64_t* off_in = reinterpret_cast<const uint64_t*>(
      base + kHeaderBytes + offsets_bytes + out_section);
  const uint32_t* key_in = reinterpret_cast<const uint32_t*>(
      base + kHeaderBytes + 2 * offsets_bytes + out_section);
  // The offsets arrays address memory (span construction adds them to the
  // keys base), so they are fully validated: monotone from zero, ending
  // exactly at the declared totals. Key VALUES are deliberately not
  // validated here — see label_store.h for the memory-safety argument.
  const auto check_offsets = [n](const uint64_t* offsets, uint64_t total,
                                 const char* side) -> Status {
    if (offsets[0] != 0 || offsets[n] != total) {
      return Status::Corruption("label store " + std::string(side) +
                                " offsets do not span the declared total");
    }
    for (uint64_t v = 0; v < n; ++v) {
      if (offsets[v] > offsets[v + 1]) {
        return Status::Corruption("label store " + std::string(side) +
                                  " offsets not monotone");
      }
    }
    return Status::OK();
  };
  REACH_RETURN_IF_ERROR(check_offsets(off_out, total_out, "Lout"));
  REACH_RETURN_IF_ERROR(check_offsets(off_in, total_in, "Lin"));
  const auto check_pad = [](const std::byte* pad, size_t count,
                            const char* side) -> Status {
    for (size_t i = 0; i < count; ++i) {
      if (pad[i] != std::byte{0}) {
        return Status::Corruption("label store " + std::string(side) +
                                  " padding is not zero");
      }
    }
    return Status::OK();
  };
  REACH_RETURN_IF_ERROR(
      check_pad(base + kHeaderBytes + offsets_bytes +
                    total_out * sizeof(uint32_t),
                KeysPadBytes(total_out), "Lout"));
  REACH_RETURN_IF_ERROR(
      check_pad(base + kHeaderBytes + 2 * offsets_bytes + out_section +
                    total_in * sizeof(uint32_t),
                KeysPadBytes(total_in), "Lin"));
  LabelStore store;
  store.num_vertices_ = static_cast<size_t>(n);
  store.sealed_ = true;
  store.off_out_ = off_out;
  store.off_in_ = off_in;
  store.key_out_ = key_out;
  store.key_in_ = key_in;
  store.backing_ = std::move(region.blob);
  return store;
}

StatusOr<LabelStore> ReadLabelStoreFor(const Digraph& dag, std::istream& in,
                                       const char* who) {
  StatusOr<LabelStore> loaded = LabelStore::Read(in);
  if (!loaded.ok()) return loaded.status();
  if (loaded->num_vertices() != dag.num_vertices()) {
    return Status::Corruption(
        std::string(who) + " snapshot covers " +
        std::to_string(loaded->num_vertices()) + " vertices, graph has " +
        std::to_string(dag.num_vertices()));
  }
  return loaded;
}

StatusOr<LabelStore> MapLabelStoreFor(const Digraph& dag, MappedRegion region,
                                      const char* who) {
  StatusOr<LabelStore> mapped = LabelStore::FromMapped(std::move(region));
  if (!mapped.ok()) return mapped.status();
  if (mapped->num_vertices() != dag.num_vertices()) {
    return Status::Corruption(
        std::string(who) + " snapshot covers " +
        std::to_string(mapped->num_vertices()) + " vertices, graph has " +
        std::to_string(dag.num_vertices()));
  }
  return mapped;
}

std::optional<uint64_t> PeekSnapshotVertexCount(std::istream& in) {
  if (!in) return std::nullopt;
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return std::nullopt;
  uint64_t magic = 0;
  uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  const bool ok = static_cast<bool>(in);
  in.clear();
  in.seekg(pos);
  if (!in || !ok) return std::nullopt;
  return n;
}

bool LabelStore::operator==(const LabelStore& other) const {
  if (num_vertices_ != other.num_vertices_) return false;
  for (Vertex v = 0; v < num_vertices_; ++v) {
    const std::span<const uint32_t> a_out = Out(v);
    const std::span<const uint32_t> b_out = other.Out(v);
    if (!std::equal(a_out.begin(), a_out.end(), b_out.begin(), b_out.end())) {
      return false;
    }
    const std::span<const uint32_t> a_in = In(v);
    const std::span<const uint32_t> b_in = other.In(v);
    if (!std::equal(a_in.begin(), a_in.end(), b_in.begin(), b_in.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace reach
