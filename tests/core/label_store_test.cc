#include "core/label_store.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/mapped_blob.h"
#include "util/rng.h"

namespace reach {
namespace {

std::vector<uint32_t> ToVec(std::span<const uint32_t> s) {
  return {s.begin(), s.end()};
}

/// A small two-phase store exercised by most tests:
///   Lout(0) = {1}, Lout(2) = {0, 2}; Lin(1) = {1}, Lin(2) = {0}.
LabelStore SampleStore() {
  LabelStore l(3);
  l.InsertOut(0, 1);
  l.InsertOut(2, 2);
  l.InsertOut(2, 0);
  l.InsertIn(1, 1);
  l.InsertIn(2, 0);
  return l;
}

std::string Serialize(const LabelStore& l) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_TRUE(l.Write(ss).ok());
  return ss.str();
}

/// Restores `bytes` through an owned heap blob — the deep-validating
/// load every snapshot read onto the heap takes.
StatusOr<LabelStore> Deserialize(const std::string& bytes) {
  return LabelStore::FromMapped(
      MappedRegion{testing_util::OwnedBlob(bytes), 0});
}

void Poke32(std::string* blob, size_t offset, uint32_t value) {
  ASSERT_LE(offset + 4, blob->size());
  std::memcpy(blob->data() + offset, &value, sizeof(value));
}

void Poke64(std::string* blob, size_t offset, uint64_t value) {
  ASSERT_LE(offset + 8, blob->size());
  std::memcpy(blob->data() + offset, &value, sizeof(value));
}

TEST(LabelStoreTest, EmptyLabelsDoNotIntersect) {
  LabelStore l(3);
  EXPECT_FALSE(l.Query(0, 1));
  EXPECT_FALSE(l.Query(2, 2));
}

TEST(LabelStoreTest, QueryFindsCommonHop) {
  LabelStore l(4);
  l.InsertOut(0, 7);
  l.InsertOut(0, 9);
  l.InsertIn(1, 9);
  EXPECT_TRUE(l.Query(0, 1));
  EXPECT_FALSE(l.Query(1, 0));
}

TEST(LabelStoreTest, InsertKeepsSorted) {
  LabelStore l(1);
  l.InsertOut(0, 9);
  l.InsertOut(0, 3);
  l.InsertOut(0, 7);
  l.InsertOut(0, 3);  // Duplicate ignored.
  EXPECT_EQ(ToVec(l.Out(0)), (std::vector<uint32_t>{3, 7, 9}));
}

TEST(LabelStoreTest, AppendPattern) {
  // Ascending keys, as Distribution Labeling inserts them.
  LabelStore l(2);
  l.InsertOut(0, 1);
  l.InsertOut(0, 5);
  l.InsertIn(1, 5);
  EXPECT_EQ(ToVec(l.Out(0)), (std::vector<uint32_t>{1, 5}));
  EXPECT_TRUE(l.Query(0, 1));
}

TEST(LabelStoreTest, SizeAccounting) {
  LabelStore l(3);
  l.InsertOut(0, 1);
  l.InsertOut(1, 2);
  l.InsertIn(2, 3);
  l.InsertIn(2, 4);
  EXPECT_EQ(l.TotalEntries(), 4u);
  EXPECT_EQ(l.MaxLabelSize(), 2u);
  l.Seal();
  EXPECT_EQ(l.TotalEntries(), 4u);
  EXPECT_EQ(l.MaxLabelSize(), 2u);
}

TEST(LabelStoreTest, SealPreservesLabelsAndAnswers) {
  LabelStore build_phase = SampleStore();
  LabelStore sealed = SampleStore();
  sealed.Seal();
  ASSERT_TRUE(sealed.sealed());
  EXPECT_FALSE(build_phase.sealed());
  EXPECT_TRUE(sealed == build_phase);
  for (Vertex v = 0; v < 3; ++v) {
    EXPECT_EQ(ToVec(sealed.Out(v)), ToVec(build_phase.Out(v))) << v;
    EXPECT_EQ(ToVec(sealed.In(v)), ToVec(build_phase.In(v))) << v;
    for (Vertex w = 0; w < 3; ++w) {
      EXPECT_EQ(sealed.Query(v, w), build_phase.Query(v, w))
          << v << "->" << w;
    }
  }
  sealed.Seal();  // Idempotent.
  EXPECT_TRUE(sealed == build_phase);
}

TEST(LabelStoreTest, UnsealRestoresMutation) {
  LabelStore l = SampleStore();
  l.Seal();
  l.Unseal();
  EXPECT_FALSE(l.sealed());
  EXPECT_TRUE(l == SampleStore());
  l.InsertOut(1, 0);
  l.InsertIn(2, 0);
  EXPECT_TRUE(l.Query(1, 2));
  l.Seal();
  EXPECT_TRUE(l.Query(1, 2));
}

TEST(LabelStoreTest, SealedMemoryBytesIsExactCsrFootprint) {
  // The sealed store is exactly its CSR arrays: one offsets entry per
  // vertex plus one, per side, and one key per stored label entry — no
  // per-vector headers, no capacity slack (the build-phase estimate had
  // understated the paper's index-size metric against allocator reality).
  LabelStore l = SampleStore();
  l.Seal();
  const size_t expected =
      2 * (l.num_vertices() + 1) * sizeof(uint64_t) +
      static_cast<size_t>(l.TotalEntries()) * sizeof(uint32_t);
  EXPECT_EQ(l.MemoryBytes(), expected);
}

TEST(LabelStoreTest, WriteBytesIdenticalFromEitherPhase) {
  LabelStore build_phase = SampleStore();
  LabelStore sealed = SampleStore();
  sealed.Seal();
  EXPECT_EQ(Serialize(build_phase), Serialize(sealed));
}

TEST(LabelStoreTest, SealedCopyOutlivesOriginal) {
  // Copies share the sealed blob: destroying the original (heap-allocated
  // so ASan flags any access to freed label bytes) must leave every copy
  // answering, whichever way it was made.
  auto original = std::make_unique<LabelStore>(SampleStore());
  original->Seal();
  const std::string bytes = Serialize(*original);
  LabelStore copied(*original);
  LabelStore assigned;
  assigned = *original;
  LabelStore temporary(*original);
  LabelStore moved(std::move(temporary));
  original.reset();
  for (const LabelStore* store : {&copied, &assigned, &moved}) {
    ASSERT_TRUE(store->sealed());
    EXPECT_TRUE(*store == SampleStore());
    EXPECT_TRUE(store->Query(0, 1));
    EXPECT_FALSE(store->Query(1, 0));
    EXPECT_EQ(Serialize(*store), bytes);
  }
}

TEST(LabelStoreTest, UnsealingACopyLeavesOriginalUntouched) {
  LabelStore original = SampleStore();
  original.Seal();
  const std::string bytes = Serialize(original);
  LabelStore copy = original;
  copy.Unseal();
  copy.InsertOut(1, 0);
  copy.InsertIn(2, 0);
  EXPECT_TRUE(copy.Query(1, 2));
  const LabelStore reference = SampleStore();
  EXPECT_TRUE(original.sealed());
  EXPECT_TRUE(original == reference);
  for (Vertex u = 0; u < 3; ++u) {
    for (Vertex v = 0; v < 3; ++v) {
      EXPECT_EQ(original.Query(u, v), reference.Query(u, v))
          << u << "->" << v;
    }
  }
  EXPECT_EQ(Serialize(original), bytes);
}

TEST(LabelStoreTest, SerializationRoundTrip) {
  LabelStore l(5);
  l.InsertOut(0, 1);
  l.InsertOut(0, 2);
  l.InsertIn(3, 1);
  l.InsertIn(4, 4);
  auto back = Deserialize(Serialize(l));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->sealed());
  EXPECT_TRUE(*back == l);
  EXPECT_EQ(back->TotalEntries(), 4u);
  // A reloaded store reports the same exact footprint as a sealed one.
  LabelStore resealed = l;
  resealed.Seal();
  EXPECT_EQ(back->MemoryBytes(), resealed.MemoryBytes());
}

TEST(LabelStoreTest, RandomizedSealAndRoundTripAgree) {
  Rng rng(404);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 1 + rng.Uniform(40);
    LabelStore l(n);
    const size_t inserts = rng.Uniform(120);
    for (size_t i = 0; i < inserts; ++i) {
      const Vertex v = static_cast<Vertex>(rng.Uniform(n));
      const uint32_t key = static_cast<uint32_t>(rng.Uniform(n));
      if (rng.Bernoulli(0.5)) {
        l.InsertOut(v, key);
      } else {
        l.InsertIn(v, key);
      }
    }
    LabelStore sealed = l;
    sealed.Seal();
    EXPECT_TRUE(sealed == l);
    auto back = Deserialize(Serialize(l));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == l);
    for (int q = 0; q < 50; ++q) {
      const Vertex u = static_cast<Vertex>(rng.Uniform(n));
      const Vertex v = static_cast<Vertex>(rng.Uniform(n));
      EXPECT_EQ(l.Query(u, v), sealed.Query(u, v));
      EXPECT_EQ(l.Query(u, v), back->Query(u, v));
    }
  }
}

// --- Corrupt-blob regressions. The RLSTORE3 reference blob (SampleStore,
// n = 3, Lout(0)={1}, Lout(2)={0,2}, Lin(1)={1}, Lin(2)={0}):
//   [0]   magic            u64
//   [8]   n = 3            u64
//   [16]  total_out = 3    u64
//   [24]  total_in = 2     u64
//   [32]  off_out {0,1,1,3}    u64 x 4 at 32/40/48/56
//   [64]  keys_out {1,0,2}     u32 x 3 at 64/68/72
//   [76]  pad (4 zero bytes — 3 keys round up to 8)
//   [80]  off_in {0,0,1,2}     u64 x 4 at 80/88/96/104
//   [112] keys_in {1,0}        u32 x 2 at 112/116 (no pad: 2 keys = 8 bytes)
// total size 120 bytes.

TEST(LabelStoreReadTest, RejectsGarbage) {
  auto back = Deserialize("not a labeling blob at all");
  EXPECT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(LabelStoreReadTest, RejectsBadMagic) {
  std::string blob = Serialize(SampleStore());
  blob[0] ^= 0x5a;
  EXPECT_TRUE(Deserialize(blob).status().IsCorruption());
}

TEST(LabelStoreReadTest, RejectsTruncatedHeader) {
  const std::string blob = Serialize(SampleStore());
  EXPECT_TRUE(Deserialize(blob.substr(0, 12)).status().IsCorruption());
}

TEST(LabelStoreReadTest, RejectsVertexCountBeyondIdSpace) {
  std::string blob = Serialize(SampleStore());
  Poke64(&blob, 8, uint64_t{1} << 33);
  const Status status = Deserialize(blob).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("uint32"), std::string::npos);
  // The boundary case: n == 2^32 is unreachable by a uint32 vertex id, so
  // it must be rejected up front, not merely n > 2^32.
  Poke64(&blob, 8, uint64_t{1} << 32);
  EXPECT_TRUE(Deserialize(blob).status().IsCorruption());
}

TEST(LabelStoreReadTest, RejectsImpossibleSideTotal) {
  // n = 3 admits at most 9 strictly-ascending keys < 3 per side; a forged
  // total must fail before any size arithmetic uses it.
  std::string blob = Serialize(SampleStore());
  Poke64(&blob, 16, 12);
  const Status status = Deserialize(blob).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("impossible"), std::string::npos);
}

TEST(LabelStoreReadTest, RejectsOffsetExceedingDeclaredTotal) {
  std::string blob = Serialize(SampleStore());
  Poke64(&blob, 40, 9);  // off_out[1] = 9; total_out says 3.
  Status status = Deserialize(blob).status();
  EXPECT_TRUE(status.IsCorruption());
  // off_out becomes {0, 9, 1, 3}: the row past the total drops back.
  EXPECT_NE(status.message().find("monotone"), std::string::npos);
}

TEST(LabelStoreReadTest, RejectsOffsetsEndingBelowDeclaredTotal) {
  std::string blob = Serialize(SampleStore());
  // off_out becomes {0, 1, 1, 1}: monotone, in range, but the rows no
  // longer sum to the declared total_out = 3.
  Poke64(&blob, 56, 1);
  Status status = Deserialize(blob).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("span the declared total"),
            std::string::npos);
}

TEST(LabelStoreReadTest, RejectsNonMonotoneOffsets) {
  std::string nonzero_start = Serialize(SampleStore());
  Poke64(&nonzero_start, 32, 1);  // off_out[0] must be 0.
  EXPECT_TRUE(Deserialize(nonzero_start).status().IsCorruption());

  std::string decreasing = Serialize(SampleStore());
  Poke64(&decreasing, 40, 3);  // off_out becomes {0, 3, 1, 3}.
  Status status = Deserialize(decreasing).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("monotone"), std::string::npos);
}

TEST(LabelStoreReadTest, RejectsUnsortedAndDuplicateKeys) {
  std::string duplicate = Serialize(SampleStore());
  Poke32(&duplicate, 72, 0);  // v2's Lout keys become {0, 0}.
  Status status = Deserialize(duplicate).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("ascending"), std::string::npos);
}

TEST(LabelStoreReadTest, RejectsKeyOutOfRange) {
  std::string blob = Serialize(SampleStore());
  Poke32(&blob, 64, 7);  // Key 7 with n = 3.
  Status status = Deserialize(blob).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("range"), std::string::npos);
}

TEST(LabelStoreReadTest, RejectsNonzeroPadding) {
  std::string blob = Serialize(SampleStore());
  blob[77] = '\x01';  // Inside the Lout keys pad (bytes 76..79).
  Status status = Deserialize(blob).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("padding"), std::string::npos);
}

TEST(LabelStoreReadTest, RejectsTruncatedKeyData) {
  const std::string blob = Serialize(SampleStore());
  ASSERT_EQ(blob.size(), 120u);
  // One cut inside each section: header, out offsets, out keys, out pad,
  // in offsets, in keys.
  for (const size_t cut : {20u, 50u, 66u, 78u, 90u, 114u}) {
    EXPECT_TRUE(Deserialize(blob.substr(0, cut)).status().IsCorruption())
        << "cut at " << cut;
  }
}

TEST(LabelStoreReadTest, RejectsTrailingBytes) {
  std::string blob = Serialize(SampleStore());
  blob.push_back('\0');
  Status status = Deserialize(blob).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("header implies"), std::string::npos);
}

// --- Mapped (zero-copy) backing. Same reference layout as above; every
// corrupt variant must be rejected by size arithmetic alone, before any
// byte past the mapping could be dereferenced (a mapped file's boundary
// raises SIGBUS, not a graceful error).

/// Writes `bytes` to a fresh file under the gtest temp dir and maps it.
/// The file is unlinked immediately — the mapping keeps it alive (POSIX),
/// which doubles as a check that nothing re-opens the path.
std::shared_ptr<const MappedBlob> MapBytes(const std::string& bytes,
                                           const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/label_store_test." + tag + ".blob";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good()) << path;
  }
  auto blob = MappedBlob::Open(path);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  std::remove(path.c_str());
  return blob.ok() ? *blob : nullptr;
}

StatusOr<LabelStore> MapDeserialize(const std::string& bytes,
                                    const std::string& tag) {
  auto blob = MapBytes(bytes, tag);
  if (blob == nullptr) {
    return Status::Internal("test fixture failed to map blob");
  }
  return LabelStore::FromMapped(MappedRegion{std::move(blob), 0});
}

TEST(LabelStoreMappedTest, AnswersIdenticalToOwnedRead) {
  const std::string blob = Serialize(SampleStore());
  const auto heap_blob = testing_util::OwnedBlob(blob);
  const auto mapped_blob = MapBytes(blob, "equiv");
  ASSERT_NE(heap_blob, nullptr);
  ASSERT_NE(mapped_blob, nullptr);
  EXPECT_FALSE(heap_blob->mapped());
  EXPECT_TRUE(mapped_blob->mapped());
  auto owned = LabelStore::FromMapped(MappedRegion{heap_blob, 0});
  auto mapped = LabelStore::FromMapped(MappedRegion{mapped_blob, 0});
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->sealed());
  EXPECT_TRUE(*mapped == *owned);
  EXPECT_EQ(mapped->TotalEntries(), owned->TotalEntries());
  EXPECT_EQ(mapped->MemoryBytes(), owned->MemoryBytes());
  for (Vertex u = 0; u < 3; ++u) {
    EXPECT_EQ(ToVec(mapped->Out(u)), ToVec(owned->Out(u))) << u;
    EXPECT_EQ(ToVec(mapped->In(u)), ToVec(owned->In(u))) << u;
    for (Vertex v = 0; v < 3; ++v) {
      EXPECT_EQ(mapped->Query(u, v), owned->Query(u, v)) << u << "->" << v;
    }
  }
}

TEST(LabelStoreMappedTest, RetainsBackingAfterCallerDropsBlob) {
  LabelStore store;
  std::weak_ptr<const MappedBlob> watch;
  {
    auto blob = MapBytes(Serialize(SampleStore()), "keepalive");
    ASSERT_NE(blob, nullptr);
    watch = blob;
    auto mapped = LabelStore::FromMapped(MappedRegion{blob, 0});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    store = std::move(*mapped);
  }
  // The caller's shared_ptr is gone; the store's retained reference must
  // keep the mapping alive (the RELOAD lifetime contract in miniature).
  EXPECT_EQ(watch.use_count(), 1);
  EXPECT_TRUE(store == SampleStore());
  EXPECT_TRUE(store.Query(0, 1));
  // Copies share the blob rather than duplicating the arrays.
  LabelStore copy = store;
  EXPECT_EQ(watch.use_count(), 2);
  EXPECT_TRUE(copy == store);
  EXPECT_TRUE(copy.Query(0, 1));
}

TEST(LabelStoreMappedTest, UnsealCopiesOutAndReleasesBlob) {
  auto blob = MapBytes(Serialize(SampleStore()), "unseal");
  ASSERT_NE(blob, nullptr);
  const std::weak_ptr<const MappedBlob> watch = blob;
  auto mapped = LabelStore::FromMapped(MappedRegion{std::move(blob), 0});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  mapped->Unseal();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(mapped->sealed());
  EXPECT_TRUE(*mapped == SampleStore());
  mapped->InsertOut(1, 0);
  mapped->InsertIn(2, 0);
  EXPECT_TRUE(mapped->Query(1, 2));
}

TEST(LabelStoreMappedTest, RejectsMisalignedRegionOffset) {
  auto blob = MapBytes(Serialize(SampleStore()), "misaligned");
  ASSERT_NE(blob, nullptr);
  const Status status =
      LabelStore::FromMapped(MappedRegion{blob, 4}).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("8-byte aligned"), std::string::npos);
}

TEST(LabelStoreMappedTest, RejectsForeignEndianBlob) {
  std::string blob = Serialize(SampleStore());
  // Byte-swap the magic: a file written on a foreign-endian machine can
  // never match the local-endian magic, so it dies at the first check.
  for (size_t i = 0; i < 4; ++i) std::swap(blob[i], blob[7 - i]);
  const Status status = MapDeserialize(blob, "endian").status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(LabelStoreMappedTest, RejectsTruncationAtEverySection) {
  const std::string blob = Serialize(SampleStore());
  ASSERT_EQ(blob.size(), 120u);
  // Same section cuts as RejectsTruncatedKeyData, plus off-by-one at the
  // end. Every rejection must come from arithmetic on the region size, reached
  // without dereferencing past the shortened mapping.
  size_t tag = 0;
  for (const size_t cut : {8u, 20u, 50u, 66u, 78u, 90u, 114u, 119u}) {
    const Status status =
        MapDeserialize(blob.substr(0, cut), "cut" + std::to_string(tag++))
            .status();
    EXPECT_TRUE(status.IsCorruption()) << "cut at " << cut;
  }
}

TEST(LabelStoreMappedTest, RejectsTrailingBytes) {
  std::string blob = Serialize(SampleStore());
  blob.append(8, '\0');
  const Status status = MapDeserialize(blob, "trailing").status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("header implies"), std::string::npos);
}

TEST(LabelStoreMappedTest, RejectsForgedTotalsBeforeTouchingArrays) {
  // A forged n/total pair that is internally consistent (total <= n^2) but
  // far beyond the file must fail on the region-size bound, not by walking
  // an offsets array that is not there.
  std::string blob = Serialize(SampleStore());
  Poke64(&blob, 8, uint64_t{1} << 20);
  Poke64(&blob, 16, uint64_t{1} << 30);
  const Status forged = MapDeserialize(blob, "forged_total").status();
  EXPECT_TRUE(forged.IsCorruption());
  EXPECT_NE(forged.message().find("truncated"), std::string::npos);
  blob = Serialize(SampleStore());
  // And an impossible total for n = 3 dies on arithmetic alone.
  Poke64(&blob, 16, 12);
  const Status status = MapDeserialize(blob, "impossible").status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("impossible"), std::string::npos);
}

TEST(LabelStoreMappedTest, RejectsBadOffsetsArrays) {
  std::string nonzero_start = Serialize(SampleStore());
  Poke64(&nonzero_start, 32, 1);  // off_out[0] must be 0.
  Status status = MapDeserialize(nonzero_start, "span").status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("span"), std::string::npos);

  std::string decreasing = Serialize(SampleStore());
  Poke64(&decreasing, 40, 3);  // off_out becomes {0, 3, 1, 3}.
  status = MapDeserialize(decreasing, "monotone").status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("monotone"), std::string::npos);

  std::string nonzero_pad = Serialize(SampleStore());
  nonzero_pad[77] = '\x01';
  status = MapDeserialize(nonzero_pad, "pad").status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("padding"), std::string::npos);
}

TEST(LabelStoreMappedTest, KeyValuesAreCheckedOnHeapBlobsOnly) {
  // Key 7 with n = 3 in Lout(0): the heap load rejects it; an mmap load
  // serves it, since it validates structure only (label_store.h says why
  // that is memory-safe).
  std::string blob = Serialize(SampleStore());
  Poke32(&blob, 64, 7);
  EXPECT_TRUE(Deserialize(blob).status().IsCorruption());
  auto mapped_blob = MapBytes(blob, "key_range");
  ASSERT_NE(mapped_blob, nullptr);
  if (!mapped_blob->mapped()) GTEST_SKIP() << "no mmap on this platform";
  auto mapped = LabelStore::FromMapped(MappedRegion{mapped_blob, 0});
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(ToVec(mapped->Out(0)), std::vector<uint32_t>{7});
}

TEST(LabelStoreMappedTest, MapLabelStoreForCrossChecksVertexCount) {
  auto blob = MapBytes(Serialize(SampleStore()), "crosscheck");
  ASSERT_NE(blob, nullptr);
  const Digraph match = Digraph::FromEdges(3, {{0, 1}});
  auto ok = MapLabelStoreFor(match, MappedRegion{blob, 0}, "test oracle");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok == SampleStore());

  const Digraph mismatch = Digraph::FromEdges(4, {{0, 1}});
  const Status status =
      MapLabelStoreFor(mismatch, MappedRegion{blob, 0}, "test oracle")
          .status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("test oracle"), std::string::npos);
}

}  // namespace
}  // namespace reach
