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
//   per-vertex               writes both         read-only view of one
//   std::vector labels,      sides as one        RLSTORE3 blob: offsets[]
//   append/insert API        RLSTORE3 blob and   + keys[] CSR per side,
//   (construction mutates    frees the build     exact MemoryBytes(),
//   labels constantly)       vectors             cache-friendly queries
//
// Construction algorithms run in the build phase (they interleave reads
// and inserts); BuildIndex seals once the labeling is final, so every
// query after a successful Build touches two contiguous spans instead of
// chasing two heap-scattered vectors. Unseal() expands back for the
// dynamic oracle's incremental patches. Queries work in either phase and
// answer identically.
//
// A sealed store is always a view over the serialized bytes: Seal()
// writes them into an owned heap MappedBlob, FromMapped() points into a
// caller's blob (a snapshot opened by mmap or read onto the heap). The
// store retains the blob shared_ptr, so its spans outlive any caller
// reference, and Write() of a sealed store is one write of those bytes.
// The blob is immutable, so copies share it; Unseal() of any sealed store
// copies the labels out and drops its reference.
//
// The key space is algorithm-defined: Distribution Labeling stores
// total-order positions (labels stay sorted by construction), Hierarchical
// Labeling and 2HOP store vertex ids. Either way every key is < n and
// every row strictly ascending. FromMapped validates that per key when the
// blob is a heap buffer, whose bytes are resident anyway. On an mmap'd
// blob it checks the offsets arrays (they address memory) but
// deliberately not the key values: keys only ever feed sorted-intersection
// *comparisons*, never indexing, so a corrupt key can flip an answer but
// can never touch memory out of bounds — and full-file key validation
// would fault in every page of the index, which is exactly what zero-copy
// load avoids. differential_fuzz pins heap-vs-mmap answer identity.

#ifndef REACH_CORE_LABEL_STORE_H_
#define REACH_CORE_LABEL_STORE_H_

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/mapped_blob.h"
#include "util/sorted_ops.h"
#include "util/status.h"

namespace reach {

/// Two-sided hop labeling over a fixed vertex set; see header comment for
/// the build/sealed lifecycle. Copies and moves are member-wise: a sealed
/// copy shares the immutable blob. A moved-from store may only be
/// re-initialized, assigned or destroyed.
class LabelStore {
 public:
  LabelStore() = default;
  explicit LabelStore(size_t num_vertices) { Init(num_vertices); }

  /// Resets to an empty build-phase store over `num_vertices` vertices.
  void Init(size_t num_vertices);

  size_t num_vertices() const { return num_vertices_; }
  bool sealed() const { return sealed_; }

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

  /// Writes both sides as one RLSTORE3 blob (the Write() format) into an
  /// owned heap MappedBlob and frees the build vectors; each side's
  /// vectors are freed before the next side's bytes are written. Queries
  /// and every read-only accessor keep answering identically. Idempotent.
  void Seal();

  /// Expands the sealed view back into per-vertex vectors so the mutation
  /// API works again (dynamic labeling's incremental patches), releasing
  /// this store's blob reference. Idempotent.
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
  /// keys, without the blob's header and pads. For an mmap'd blob only the
  /// touched pages are ever resident. In the build phase an estimate
  /// including vector headers and capacity.
  size_t MemoryBytes() const;

  /// Binary serialization ("RLSTORE3", local-endian): a sealed store
  /// writes its blob as is, a build-phase store the bytes Seal() would
  /// produce. FromMapped is the one reader.
  ///
  /// Layout, all sections 8-byte aligned relative to the blob start:
  ///   u64 magic, u64 n, u64 total_out, u64 total_in
  ///   u64 offsets_out[n + 1]
  ///   u32 keys_out[total_out], zero-padded to 8
  ///   u64 offsets_in[n + 1]
  ///   u32 keys_in[total_in], zero-padded to 8
  Status Write(std::ostream& out) const;

  /// Restores a sealed store viewing `region` (which must start 8-byte
  /// aligned within its 64-aligned blob and extend exactly to the blob's
  /// end — the label blob is always a snapshot's final section). Validates
  /// the untrusted bytes: header magic and arithmetic, the full offsets
  /// arrays (monotone from zero, ending at the declared totals) and zero
  /// padding, all BEFORE dereferencing any array section, so a truncated
  /// or forged file is rejected without ever touching bytes past the
  /// mapping (no SIGBUS). On a heap blob (`!region.blob->mapped()`) it
  /// also checks every key < n and every row strictly ascending; on an
  /// mmap'd blob key values are not read — see the header comment for why
  /// that is memory-safe. The returned store retains region.blob.
  static StatusOr<LabelStore> FromMapped(MappedRegion region);

  /// Logical equality: same vertex count and per-vertex labels, regardless
  /// of phase or backing (a sealed store equals its unsealed twin).
  bool operator==(const LabelStore& other) const;

 private:
  /// Points the sealed read surface into `blob`, whose RLSTORE3 header and
  /// size the caller has validated (FromMapped) or just written (Seal).
  void AdoptSealed(MappedRegion blob);

  size_t num_vertices_ = 0;
  bool sealed_ = false;
  // Build phase.
  std::vector<std::vector<uint32_t>> build_out_;
  std::vector<std::vector<uint32_t>> build_in_;
  // Sealed phase: keys of vertex v occupy
  // key_xxx_[off_xxx_[v] .. off_xxx_[v + 1]), all inside blob_, which keeps
  // them alive. Null/empty in the build phase.
  const uint64_t* off_out_ = nullptr;
  const uint64_t* off_in_ = nullptr;
  const uint32_t* key_out_ = nullptr;
  const uint32_t* key_in_ = nullptr;
  MappedRegion blob_;
};

/// Shared LoadIndexMapped body of the labeling oracles: FromMapped plus a
/// cross-check of the blob's vertex count against `dag`'s (`who` names the
/// oracle in error messages).
StatusOr<LabelStore> MapLabelStoreFor(const Digraph& dag, MappedRegion region,
                                      const char* who);

}  // namespace reach

#endif  // REACH_CORE_LABEL_STORE_H_
