// Two-phase hop-label storage (reachability oracle labels): per-vertex
// Lout/Lin sets of 32-bit keys. A query u -> v is a sorted-array
// intersection test (util/sorted_ops.h) — the paper (Section 1) points out
// that storing labels in sorted arrays rather than sets removes the
// query-time gap earlier studies reported for 2-hop labelings.
//
// Lifecycle:
//
//   build phase              Seal()              sealed phase
//   ───────────              ──────              ────────────
//   per-vertex               compacts both       offsets[] + keys[] CSR:
//   std::vector labels,      sides into          one contiguous array per
//   append/insert API        contiguous arrays   side, per-vertex spans,
//   (construction mutates    and frees the       exact MemoryBytes(),
//   labels constantly)       build vectors       cache-friendly queries
//
// Construction algorithms run in the build phase (they interleave reads
// and inserts); BuildIndex seals once the labeling is final, so every
// query after a successful Build touches two contiguous spans instead of
// chasing two heap-scattered vectors. Unseal() expands back for the
// dynamic oracle's incremental patches. Queries work in either phase and
// answer identically.
//
// Sealed storage has two backings behind one read surface:
//   * owned  — the offsets/keys vectors this store allocated (Seal, Read);
//   * mapped — pointers into a caller-provided MappedBlob region
//     (FromMapped), the zero-copy load path: the file's bytes ARE the
//     index, no parse-and-copy. The store retains the blob shared_ptr, so
//     the mapping outlives every span handed out while the store lives.
// Unseal() of a mapped store copies the labels out and drops the blob.
//
// The key space is algorithm-defined: Distribution Labeling stores
// total-order positions (labels stay sorted by construction), Hierarchical
// Labeling and 2HOP store vertex ids. Either way every key is < n, which
// the owned reader validates per key. The mapped validator checks the
// offsets arrays (they address memory) but deliberately not the key
// values: keys only ever feed sorted-intersection *comparisons*, never
// indexing, so a corrupt key can flip an answer but can never touch
// memory out of bounds — and full-file key validation would fault in
// every page of the index, which is exactly what zero-copy load avoids.
// differential_fuzz pins owned-vs-mapped answer byte-identity.

#ifndef REACH_CORE_LABEL_STORE_H_
#define REACH_CORE_LABEL_STORE_H_

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/mapped_blob.h"
#include "util/sorted_ops.h"
#include "util/status.h"

namespace reach {

/// Two-sided hop labeling over a fixed vertex set; see header comment for
/// the build/sealed lifecycle and the owned/mapped sealed backings.
class LabelStore {
 public:
  LabelStore() = default;
  explicit LabelStore(size_t num_vertices) { Init(num_vertices); }

  // Sealed reads go through raw pointers that target either the owned
  // vectors or the mapped region; copies into owned storage must re-point
  // at their own vectors, and a moved-from store must not dangle.
  LabelStore(const LabelStore& other) { *this = other; }
  LabelStore& operator=(const LabelStore& other);
  LabelStore(LabelStore&& other) noexcept { *this = std::move(other); }
  LabelStore& operator=(LabelStore&& other) noexcept;

  /// Resets to an empty build-phase store over `num_vertices` vertices.
  void Init(size_t num_vertices);

  size_t num_vertices() const { return num_vertices_; }
  bool sealed() const { return sealed_; }

  /// True when the sealed arrays live in a caller-provided mapped region
  /// rather than owned vectors (FromMapped). The blob is retained.
  bool mapped() const { return backing_ != nullptr; }

  // --- Build-phase mutation (requires !sealed()). -------------------------

  std::vector<uint32_t>* MutableOut(Vertex v) {
    assert(!sealed_);
    return &build_out_[v];
  }
  std::vector<uint32_t>* MutableIn(Vertex v) {
    assert(!sealed_);
    return &build_in_[v];
  }

  /// Inserts a key keeping the label sorted. A key above every stored key
  /// (Distribution Labeling's order positions) is an O(1) append; others
  /// (vertex-id keys) take a binary-search insert (SortedInsert).
  void InsertOut(Vertex v, uint32_t key) {
    assert(!sealed_);
    SortedInsert(&build_out_[v], key);
  }
  void InsertIn(Vertex v, uint32_t key) {
    assert(!sealed_);
    SortedInsert(&build_in_[v], key);
  }

  // --- Phase transitions. -------------------------------------------------

  /// Compacts both sides into contiguous offsets[] + keys[] arrays and
  /// frees the build vectors. Queries and every read-only accessor keep
  /// answering identically. Idempotent.
  void Seal();

  /// Expands the CSR arrays back into per-vertex vectors so the mutation
  /// API works again (dynamic labeling's incremental patches). A mapped
  /// store copies its labels to owned storage and releases the blob
  /// reference. Idempotent.
  void Unseal();

  // --- Reads (either phase). ----------------------------------------------

  std::span<const uint32_t> Out(Vertex v) const {
    if (sealed_) {
      return {key_out_ + off_out_[v],
              static_cast<size_t>(off_out_[v + 1] - off_out_[v])};
    }
    return build_out_[v];
  }
  std::span<const uint32_t> In(Vertex v) const {
    if (sealed_) {
      return {key_in_ + off_in_[v],
              static_cast<size_t>(off_in_[v + 1] - off_in_[v])};
    }
    return build_in_[v];
  }

  /// True iff Lout(u) and Lin(v) share a hop (adaptive intersection).
  bool Query(Vertex u, Vertex v) const {
    if (sealed_) {
      return SortedIntersects(
          {key_out_ + off_out_[u],
           static_cast<size_t>(off_out_[u + 1] - off_out_[u])},
          {key_in_ + off_in_[v],
           static_cast<size_t>(off_in_[v + 1] - off_in_[v])});
    }
    return SortedIntersects(build_out_[u], build_in_[v]);
  }

  /// Total number of stored label entries, i.e. the paper's "index size in
  /// number of integers" metric (Figures 3 and 4).
  uint64_t TotalEntries() const;

  /// Largest |Lout(v)| + |Lin(v)| over all vertices.
  size_t MaxLabelSize() const;

  /// Footprint of the label arrays. Exact in the sealed phase: offsets +
  /// keys, no headers or slack. For a mapped store this counts the bytes
  /// addressed through the view — identical to its owned twin by
  /// construction, though only the touched pages are ever resident. In
  /// the build phase an estimate including vector headers and capacity.
  size_t MemoryBytes() const;

  /// Binary serialization ("RLSTORE3", local-endian). Writes the sealed
  /// single-blob format from either phase; Read validates the untrusted
  /// blob (header magic, bounds, offsets monotone, per-label
  /// sorted-unique keys < n, zero padding, exact trailing-byte check)
  /// and returns a sealed store with owned storage.
  ///
  /// Layout, all sections 8-byte aligned relative to the blob start:
  ///   u64 magic, u64 n, u64 total_out, u64 total_in
  ///   u64 offsets_out[n + 1]
  ///   u32 keys_out[total_out], zero-padded to 8
  ///   u64 offsets_in[n + 1]
  ///   u32 keys_in[total_in], zero-padded to 8
  Status Write(std::ostream& out) const;
  static StatusOr<LabelStore> Read(std::istream& in);

  /// Zero-copy restore: the sealed arrays point into `region` (which must
  /// start 8-byte aligned within its 64-aligned blob and extend exactly to
  /// the blob's end — the label blob is always a snapshot's final
  /// section). Validates header arithmetic and the full offsets arrays
  /// against the region size BEFORE dereferencing any array section, so a
  /// truncated or forged file is rejected without ever touching bytes
  /// past the mapping (no SIGBUS). Key values are not validated — see the
  /// header comment for why that is memory-safe. The returned store
  /// retains region.blob.
  static StatusOr<LabelStore> FromMapped(MappedRegion region);

  /// Exact serialized size of this store's Write() output in bytes.
  uint64_t SerializedBytes() const;

  /// Logical equality: same vertex count and per-vertex labels, regardless
  /// of phase or backing (a sealed store equals its unsealed twin).
  bool operator==(const LabelStore& other) const;

 private:
  /// Points the sealed read surface at the owned vectors.
  void RepointOwned();
  /// Clears to the default-constructed state (moved-from stores).
  void Clear();

  size_t num_vertices_ = 0;
  bool sealed_ = false;
  // Build phase.
  std::vector<std::vector<uint32_t>> build_out_;
  std::vector<std::vector<uint32_t>> build_in_;
  // Sealed phase, owned backing: keys of vertex v occupy
  // keys_xxx_[offsets_xxx_[v] .. offsets_xxx_[v + 1]). offsets arrays have
  // num_vertices_ + 1 entries. Empty when mapped.
  std::vector<uint64_t> offsets_out_;
  std::vector<uint64_t> offsets_in_;
  std::vector<uint32_t> keys_out_;
  std::vector<uint32_t> keys_in_;
  // Sealed-phase read surface: into the vectors above (owned) or into
  // backing_'s region (mapped). Null in the build phase.
  const uint64_t* off_out_ = nullptr;
  const uint64_t* off_in_ = nullptr;
  const uint32_t* key_out_ = nullptr;
  const uint32_t* key_in_ = nullptr;
  // Keepalive for the mapped backing; null means owned.
  std::shared_ptr<const MappedBlob> backing_;
};

/// Shared LoadIndex body of the labeling oracles: reads a snapshot blob
/// and cross-checks its vertex count against `dag`'s (`who` names the
/// oracle in error messages). Validation of the blob itself lives in
/// LabelStore::Read.
StatusOr<LabelStore> ReadLabelStoreFor(const Digraph& dag, std::istream& in,
                                       const char* who);

/// Mapped twin of ReadLabelStoreFor: the shared LoadIndexMapped body.
StatusOr<LabelStore> MapLabelStoreFor(const Digraph& dag, MappedRegion region,
                                      const char* who);

/// Reads the vertex count every snapshot blob in this library leads with
/// ([u64 magic][u64 vertex_count]: RLSTORE3 and the prefilter container
/// alike) without consuming the stream, restoring the read position.
/// nullopt when the stream is not seekable or too short. The value is
/// untrusted — callers may only use it for decisions the subsequent
/// validated load re-checks (the lazy-SCC fast path does exactly this).
std::optional<uint64_t> PeekSnapshotVertexCount(std::istream& in);

}  // namespace reach

#endif  // REACH_CORE_LABEL_STORE_H_
