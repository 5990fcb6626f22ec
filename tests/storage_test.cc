#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/random.h"
#include "storage/background.h"
#include "storage/bloom.h"
#include "storage/engine.h"
#include "storage/env.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"
#include "storage/write_batch.h"

namespace veloce::storage {
namespace {

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

TEST(MemEnvTest, WriteReadDelete) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("dir/a", "hello").ok());
  EXPECT_TRUE(env->FileExists("dir/a"));
  std::string out;
  ASSERT_TRUE(env->ReadFileToString("dir/a", &out).ok());
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(env->DeleteFile("dir/a").ok());
  EXPECT_FALSE(env->FileExists("dir/a"));
  EXPECT_TRUE(env->ReadFileToString("dir/a", &out).IsNotFound());
}

TEST(MemEnvTest, GetChildrenListsDirectFilesOnly) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("db/1.sst", "x").ok());
  ASSERT_TRUE(env->WriteStringToFile("db/2.sst", "y").ok());
  ASSERT_TRUE(env->WriteStringToFile("db/sub/3.sst", "z").ok());
  ASSERT_TRUE(env->WriteStringToFile("other/4.sst", "w").ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("db", &children).ok());
  EXPECT_EQ(children.size(), 2u);
}

TEST(MemEnvTest, RenameMovesAndReplacesTarget) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("a", "new").ok());
  ASSERT_TRUE(env->WriteStringToFile("b", "old").ok());
  ASSERT_TRUE(env->RenameFile("a", "b").ok());
  EXPECT_FALSE(env->FileExists("a"));
  std::string out;
  ASSERT_TRUE(env->ReadFileToString("b", &out).ok());
  EXPECT_EQ(out, "new");
  EXPECT_TRUE(env->RenameFile("missing", "c").IsNotFound());
}

TEST(MemEnvTest, WriteStringToFileIsAtomicViaTempAndRename) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("manifest", "v1").ok());
  ASSERT_TRUE(env->WriteStringToFile("manifest", "v2-longer").ok());
  std::string out;
  ASSERT_TRUE(env->ReadFileToString("manifest", &out).ok());
  EXPECT_EQ(out, "v2-longer");
  // The temp file used for the atomic swap never outlives the write.
  EXPECT_FALSE(env->FileExists("manifest.tmp"));
}

TEST(PosixEnvTest, RenameAndAtomicWrite) {
  Env* env = PosixEnv();
  const std::string dir = ::testing::TempDir() + "veloce_env_test";
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  const std::string fname = dir + "/MANIFEST";
  ASSERT_TRUE(env->WriteStringToFile(fname, "v1").ok());
  ASSERT_TRUE(env->WriteStringToFile(fname, "v2").ok());
  std::string out;
  ASSERT_TRUE(env->ReadFileToString(fname, &out).ok());
  EXPECT_EQ(out, "v2");
  EXPECT_FALSE(env->FileExists(fname + ".tmp"));
  ASSERT_TRUE(env->RenameFile(fname, dir + "/MANIFEST-2").ok());
  EXPECT_FALSE(env->FileExists(fname));
  ASSERT_TRUE(env->ReadFileToString(dir + "/MANIFEST-2", &out).ok());
  EXPECT_EQ(out, "v2");
  ASSERT_TRUE(env->DeleteFile(dir + "/MANIFEST-2").ok());
}

TEST(MemEnvTest, RandomAccessReads) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->WriteStringToFile("f", "0123456789").ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile("f", &file).ok());
  std::string out;
  ASSERT_TRUE(file->Read(3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  // Reads past EOF clamp.
  ASSERT_TRUE(file->Read(8, 10, &out).ok());
  EXPECT_EQ(out, "89");
}

// ---------------------------------------------------------------------------
// WriteBatch
// ---------------------------------------------------------------------------

TEST(WriteBatchTest, IterateReplaysOperations) {
  WriteBatch batch;
  batch.Put("k1", "v1");
  batch.Delete("k2");
  batch.Put("k3", "v3");
  EXPECT_EQ(batch.Count(), 3u);
  EXPECT_EQ(batch.PayloadBytes(), 2u + 2u + 2u + 2u + 2u);

  struct Collector : WriteBatch::Handler {
    std::vector<std::string> ops;
    void Put(Slice k, Slice v) override { ops.push_back("P:" + k.ToString() + "=" + v.ToString()); }
    void Delete(Slice k) override { ops.push_back("D:" + k.ToString()); }
  } collector;
  ASSERT_TRUE(batch.Iterate(&collector).ok());
  ASSERT_EQ(collector.ops.size(), 3u);
  EXPECT_EQ(collector.ops[0], "P:k1=v1");
  EXPECT_EQ(collector.ops[1], "D:k2");
  EXPECT_EQ(collector.ops[2], "P:k3=v3");
}

TEST(WriteBatchTest, SerializationRoundTrip) {
  WriteBatch batch;
  batch.Put("alpha", std::string(200, 'x'));
  batch.Delete("beta");
  WriteBatch restored;
  ASSERT_TRUE(restored.SetContents(batch.rep()).ok());
  EXPECT_EQ(restored.Count(), 2u);
  EXPECT_EQ(restored.PayloadBytes(), batch.PayloadBytes());
}

TEST(WriteBatchTest, CorruptContentsRejected) {
  WriteBatch batch;
  EXPECT_FALSE(batch.SetContents("\x05garbage-without-structure").ok());
}

TEST(WriteBatchTest, ClearResets) {
  WriteBatch batch;
  batch.Put("a", "b");
  batch.Clear();
  EXPECT_EQ(batch.Count(), 0u);
  EXPECT_EQ(batch.PayloadBytes(), 0u);
}

// ---------------------------------------------------------------------------
// MemTable
// ---------------------------------------------------------------------------

TEST(MemTableTest, PutGetLatestVersion) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "key", "v1");
  mem.Add(5, ValueType::kValue, "key", "v5");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("key", kMaxSequenceNumber, &value, &deleted));
  EXPECT_FALSE(deleted);
  EXPECT_EQ(value, "v5");
}

TEST(MemTableTest, SnapshotReadsSeeOldVersions) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "key", "v1");
  mem.Add(5, ValueType::kValue, "key", "v5");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("key", 3, &value, &deleted));
  EXPECT_EQ(value, "v1");
  EXPECT_FALSE(mem.Get("key", 0, &value, &deleted));
}

TEST(MemTableTest, TombstoneVisible) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "key", "v1");
  mem.Add(2, ValueType::kDeletion, "key", "");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("key", kMaxSequenceNumber, &value, &deleted));
  EXPECT_TRUE(deleted);
}

TEST(MemTableTest, MissingKey) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "a", "1");
  mem.Add(2, ValueType::kValue, "c", "3");
  std::string value;
  bool deleted = false;
  EXPECT_FALSE(mem.Get("b", kMaxSequenceNumber, &value, &deleted));
}

TEST(MemTableTest, IteratorSortedByInternalKey) {
  MemTable mem;
  Random rnd(3);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(200));
    const std::string value = "v" + std::to_string(i);
    mem.Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue, key, value);
    expected[key] = value;  // later writes win
  }
  // Walk with the iterator; for each user key the FIRST occurrence is the
  // newest version.
  auto it = mem.NewIterator();
  std::map<std::string, std::string> got;
  std::string prev_ikey;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const std::string ikey = it->key().ToString();
    if (!prev_ikey.empty()) {
      EXPECT_LT(CompareInternalKey(Slice(prev_ikey), it->key()), 0);
    }
    prev_ikey = ikey;
    const std::string ukey = ExtractUserKey(it->key()).ToString();
    if (!got.count(ukey)) got[ukey] = it->value().ToString();
  }
  EXPECT_EQ(got, expected);
}

TEST(MemTableTest, MemoryUsageGrows) {
  MemTable mem;
  const size_t before = mem.ApproximateMemoryUsage();
  mem.Add(1, ValueType::kValue, "key", std::string(1000, 'v'));
  EXPECT_GT(mem.ApproximateMemoryUsage(), before + 1000);
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(WalTest, RoundTrip) {
  auto env = NewMemEnv();
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile("wal", &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("first").ok());
    ASSERT_TRUE(writer.AddRecord("second record, longer").ok());
    ASSERT_TRUE(writer.AddRecord("").ok());
  }
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString("wal", &contents).ok());
  LogReader reader(std::move(contents));
  std::string rec;
  bool corrupt = false;
  ASSERT_TRUE(reader.ReadRecord(&rec, &corrupt));
  EXPECT_EQ(rec, "first");
  ASSERT_TRUE(reader.ReadRecord(&rec, &corrupt));
  EXPECT_EQ(rec, "second record, longer");
  ASSERT_TRUE(reader.ReadRecord(&rec, &corrupt));
  EXPECT_EQ(rec, "");
  EXPECT_FALSE(reader.ReadRecord(&rec, &corrupt));
  EXPECT_FALSE(corrupt);
}

TEST(WalTest, TruncatedTailStopsCleanly) {
  auto env = NewMemEnv();
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile("wal", &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("complete").ok());
    ASSERT_TRUE(writer.AddRecord("will be truncated").ok());
  }
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString("wal", &contents).ok());
  contents.resize(contents.size() - 5);  // simulate crash mid-write
  LogReader reader(std::move(contents));
  std::string rec;
  bool corrupt = false;
  ASSERT_TRUE(reader.ReadRecord(&rec, &corrupt));
  EXPECT_EQ(rec, "complete");
  EXPECT_FALSE(reader.ReadRecord(&rec, &corrupt));
  EXPECT_FALSE(corrupt);  // truncation is a clean end, not corruption
}

TEST(WalTest, BitFlipDetected) {
  auto env = NewMemEnv();
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile("wal", &file).ok());
    LogWriter writer(std::move(file));
    ASSERT_TRUE(writer.AddRecord("record payload").ok());
    ASSERT_TRUE(writer.AddRecord("second record").ok());
  }
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString("wal", &contents).ok());
  // Damage the FIRST record: a CRC mismatch mid-log is hard corruption. (A
  // mismatch on the final record — ending exactly at EOF — is instead
  // treated as a torn tail; see tests/fault_test.cc.)
  contents[10] ^= 0x01;
  LogReader reader(std::move(contents));
  std::string rec;
  bool corrupt = false;
  EXPECT_FALSE(reader.ReadRecord(&rec, &corrupt));
  EXPECT_TRUE(corrupt);
  EXPECT_FALSE(reader.tail_truncated());
}

// ---------------------------------------------------------------------------
// SSTable
// ---------------------------------------------------------------------------

TEST(SSTableTest, BuildAndLookup) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  TableBuilder builder(std::move(wfile), /*block_size=*/64);
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    ASSERT_TRUE(builder.Add(MakeInternalKey(key, 1, ValueType::kValue),
                            "value" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_entries(), 100u);

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t.sst", &rfile).ok());
  auto table_or = Table::Open(std::move(rfile));
  ASSERT_TRUE(table_or.ok());
  auto table = *table_or;
  EXPECT_GT(table->num_blocks(), 1u);  // small block size forces many blocks

  std::string fkey, fvalue;
  ASSERT_TRUE(table
                  ->SeekEntry(MakeInternalKey("key042", kMaxSequenceNumber,
                                              ValueType::kValue),
                              &fkey, &fvalue)
                  .ok());
  EXPECT_EQ(ExtractUserKey(Slice(fkey)).ToString(), "key042");
  EXPECT_EQ(fvalue, "value42");

  EXPECT_TRUE(table
                  ->SeekEntry(MakeInternalKey("zzz", kMaxSequenceNumber,
                                              ValueType::kValue),
                              &fkey, &fvalue)
                  .IsNotFound());
}

TEST(SSTableTest, IteratorScansAllEntries) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  TableBuilder builder(std::move(wfile), 128);
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(builder.Add(MakeInternalKey(key, 7, ValueType::kValue),
                            std::to_string(i)).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t.sst", &rfile).ok());
  auto table = *Table::Open(std::move(rfile));
  auto it = table->NewIterator();
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->value().ToString(), std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, n);
}

TEST(SSTableTest, IteratorSeekLandsOnOrAfter) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  TableBuilder builder(std::move(wfile), 64);
  for (int i = 0; i < 100; i += 2) {  // even keys only
    char key[16];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(builder.Add(MakeInternalKey(key, 1, ValueType::kValue), "v").ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t.sst", &rfile).ok());
  auto table = *Table::Open(std::move(rfile));
  auto it = table->NewIterator();
  it->Seek(MakeInternalKey("k051", kMaxSequenceNumber, ValueType::kValue));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "k052");
  it->Seek(MakeInternalKey("k999", kMaxSequenceNumber, ValueType::kValue));
  EXPECT_FALSE(it->Valid());
}

TEST(SSTableTest, CorruptBlockDetected) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  TableBuilder builder(std::move(wfile), 4096);
  ASSERT_TRUE(builder.Add(MakeInternalKey("a", 1, ValueType::kValue), "v").ok());
  ASSERT_TRUE(builder.Finish().ok());
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString("t.sst", &contents).ok());
  contents[2] ^= 0x40;  // flip a bit in the data block
  ASSERT_TRUE(env->WriteStringToFile("t2.sst", contents).ok());
  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t2.sst", &rfile).ok());
  auto table = *Table::Open(std::move(rfile));
  std::string fkey, fvalue;
  EXPECT_EQ(table->SeekEntry(MakeInternalKey("a", kMaxSequenceNumber,
                                             ValueType::kValue),
                             &fkey, &fvalue)
                .code(),
            Code::kCorruption);
}

// ---------------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back("key" + std::to_string(i));
  for (const auto& k : keys) builder.AddKey(k);
  const std::string filter = builder.Finish();
  for (const auto& k : keys) {
    EXPECT_TRUE(BloomKeyMayMatch(k, filter)) << k;
  }
}

TEST(BloomFilterTest, ConsecutiveDuplicatesCountOnce) {
  // Sorted SSTable adds feed the builder duplicate prefixes back to back
  // (every version of one MVCC key); they must not inflate the filter.
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 100; ++i) builder.AddKey("same-prefix");
  EXPECT_EQ(builder.num_keys(), 1u);
}

TEST(BloomFilterTest, FalsePositiveRateUnderTenBitsPerKey) {
  BloomFilterBuilder builder(10);
  const int n = 100000;
  char key[16];
  for (int i = 0; i < n; ++i) {
    std::snprintf(key, sizeof(key), "k%06d", i);
    builder.AddKey(key);
  }
  const std::string filter = builder.Finish();
  int false_positives = 0;
  for (int i = 0; i < n; ++i) {
    std::snprintf(key, sizeof(key), "absent%06d", i);
    if (BloomKeyMayMatch(key, filter)) ++false_positives;
  }
  // 10 bits/key with k=6 probes gives ~0.8% theoretically; assert the
  // issue's ceiling with headroom for hash quality.
  EXPECT_LE(false_positives, n * 15 / 1000)
      << "measured FPR " << (100.0 * false_positives / n) << "%";
}

TEST(BloomFilterTest, TinyOrMalformedFiltersFailOpen) {
  EXPECT_TRUE(BloomKeyMayMatch("anything", Slice()));
  EXPECT_TRUE(BloomKeyMayMatch("anything", Slice("x", 1)));
  // k > 30 is reserved for future encodings: must pass everything.
  std::string future(9, '\0');
  future.back() = static_cast<char>(31);
  EXPECT_TRUE(BloomKeyMayMatch("anything", future));
}

// ---------------------------------------------------------------------------
// SSTable filter blocks
// ---------------------------------------------------------------------------

TEST(SSTableTest, FilterBlockRoundTrip) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  TableOptions topts;
  topts.block_size = 64;
  TableBuilder builder(std::move(wfile), topts);
  char key[16];
  for (int i = 0; i < 500; ++i) {
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(builder.Add(MakeInternalKey(key, 1, ValueType::kValue), "v").ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t.sst", &rfile).ok());
  auto table = *Table::Open(std::move(rfile));
  EXPECT_TRUE(table->has_filter());
  EXPECT_EQ(table->format_version(), 2u);
  for (int i = 0; i < 500; ++i) {
    std::snprintf(key, sizeof(key), "k%04d", i);
    EXPECT_TRUE(table->MayContainPrefix(key)) << key;  // no false negatives
  }
  int false_positives = 0;
  for (int i = 0; i < 500; ++i) {
    std::snprintf(key, sizeof(key), "absent%04d", i);
    if (table->MayContainPrefix(key)) ++false_positives;
  }
  EXPECT_LT(false_positives, 25);  // ~1% expected at 10 bits/key
}

TEST(SSTableTest, PreFilterTableStillOpensAndReads) {
  // bloom_filter=false writes the legacy v1 footer — the exact layout of
  // every table built before filters existed. Readers must keep serving it.
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  TableOptions topts;
  topts.bloom_filter = false;
  TableBuilder builder(std::move(wfile), topts);
  ASSERT_TRUE(builder.Add(MakeInternalKey("a", 1, ValueType::kValue), "va").ok());
  ASSERT_TRUE(builder.Add(MakeInternalKey("b", 1, ValueType::kValue), "vb").ok());
  ASSERT_TRUE(builder.Finish().ok());

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t.sst", &rfile).ok());
  auto table = *Table::Open(std::move(rfile));
  EXPECT_FALSE(table->has_filter());
  EXPECT_EQ(table->format_version(), 1u);
  // Without a filter every prefix may match: reads fall through to blocks.
  EXPECT_TRUE(table->MayContainPrefix("a"));
  EXPECT_TRUE(table->MayContainPrefix("zzz"));
  std::string fkey, fvalue;
  ASSERT_TRUE(table->SeekEntry(MakeInternalKey("b", kMaxSequenceNumber,
                                               ValueType::kValue),
                               &fkey, &fvalue).ok());
  EXPECT_EQ(fvalue, "vb");
}

TEST(SSTableTest, PrefixExtractorControlsFilterGranularity) {
  // With an extractor that strips a 4-byte suffix, all "versions" of one
  // logical key share one filter entry, probed by bare prefix.
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  TableOptions topts;
  topts.prefix_extractor = [](Slice user_key) {
    return user_key.size() > 4
               ? Slice(user_key.data(), user_key.size() - 4)
               : user_key;
  };
  TableBuilder builder(std::move(wfile), topts);
  ASSERT_TRUE(
      builder.Add(MakeInternalKey("alpha0001", 3, ValueType::kValue), "1").ok());
  ASSERT_TRUE(
      builder.Add(MakeInternalKey("alpha0002", 2, ValueType::kValue), "2").ok());
  ASSERT_TRUE(
      builder.Add(MakeInternalKey("beta_0001", 1, ValueType::kValue), "3").ok());
  ASSERT_TRUE(builder.Finish().ok());

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t.sst", &rfile).ok());
  auto table = *Table::Open(std::move(rfile));
  ASSERT_TRUE(table->has_filter());
  EXPECT_TRUE(table->MayContainPrefix("alpha"));
  EXPECT_TRUE(table->MayContainPrefix("beta_"));
  EXPECT_FALSE(table->MayContainPrefix("gamma"));
}

TEST(SSTableTest, CorruptFilterBlockFailsOpen) {
  // A damaged filter must degrade to "no filter" (reads stay correct),
  // never to false negatives.
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  TableBuilder builder(std::move(wfile), TableOptions{});
  ASSERT_TRUE(builder.Add(MakeInternalKey("a", 1, ValueType::kValue), "va").ok());
  ASSERT_TRUE(builder.Finish().ok());
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString("t.sst", &contents).ok());
  // v2 footer: filter_offset is the first u64 of the trailing 48 bytes.
  Slice footer(contents.data() + contents.size() - 48, 8);
  uint64_t filter_offset = 0;
  ASSERT_TRUE(GetFixed64(&footer, &filter_offset));
  contents[filter_offset] ^= 0x5A;
  ASSERT_TRUE(env->WriteStringToFile("t2.sst", contents).ok());

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t2.sst", &rfile).ok());
  auto table = *Table::Open(std::move(rfile));
  EXPECT_TRUE(table->has_filter());            // footer says one exists
  EXPECT_TRUE(table->MayContainPrefix("a"));   // but probes fail open
  EXPECT_TRUE(table->MayContainPrefix("zz"));
  std::string fkey, fvalue;
  EXPECT_TRUE(table->SeekEntry(MakeInternalKey("a", kMaxSequenceNumber,
                                               ValueType::kValue),
                               &fkey, &fvalue).ok());
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

EngineOptions SmallEngineOptions() {
  EngineOptions opts;
  opts.memtable_bytes = 16 << 10;  // tiny, to force flushes
  opts.sstable_target_bytes = 8 << 10;
  opts.level_base_bytes = 64 << 10;
  return opts;
}

TEST(EngineTest, PutGetDelete) {
  auto engine = *Engine::Open({});
  ASSERT_TRUE(engine->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(engine->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE(engine->Delete("k").ok());
  EXPECT_TRUE(engine->Get("k", &value).IsNotFound());
}

TEST(EngineTest, OverwriteReturnsLatest) {
  auto engine = *Engine::Open({});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine->Put("k", "v" + std::to_string(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(engine->Get("k", &value).ok());
  EXPECT_EQ(value, "v9");
}

TEST(EngineTest, SurvivesFlushes) {
  auto engine = *Engine::Open(SmallEngineOptions());
  std::map<std::string, std::string> expected;
  Random rnd(11);
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(500));
    const std::string value = rnd.String(64);
    ASSERT_TRUE(engine->Put(key, value).ok());
    expected[key] = value;
  }
  EXPECT_GT(engine->stats().num_flushes, 0u);
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE(engine->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
}

TEST(EngineTest, CompactionPreservesData) {
  auto engine = *Engine::Open(SmallEngineOptions());
  std::map<std::string, std::string> expected;
  Random rnd(13);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(800));
    if (rnd.Bernoulli(0.1)) {
      ASSERT_TRUE(engine->Delete(key).ok());
      expected.erase(key);
    } else {
      const std::string value = rnd.String(50);
      ASSERT_TRUE(engine->Put(key, value).ok());
      expected[key] = value;
    }
  }
  ASSERT_TRUE(engine->CompactAll().ok());
  EXPECT_GT(engine->stats().num_compactions, 0u);
  EXPECT_EQ(engine->NumFilesAtLevel(0), 0);
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE(engine->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
  // Deleted keys stay deleted.
  std::string got;
  for (int i = 0; i < 800; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (!expected.count(key)) {
      EXPECT_TRUE(engine->Get(key, &got).IsNotFound()) << key;
    }
  }
}

TEST(EngineTest, IteratorSeesConsistentSnapshot) {
  auto engine = *Engine::Open({});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine->Put("k" + std::to_string(i), "old").ok());
  }
  auto it = engine->NewIterator();
  // Mutate after iterator creation.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine->Put("k" + std::to_string(i), "new").ok());
  }
  ASSERT_TRUE(engine->Put("extra", "x").ok());
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->value().ToString(), "old");
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(EngineTest, IteratorSkipsTombstones) {
  auto engine = *Engine::Open({});
  ASSERT_TRUE(engine->Put("a", "1").ok());
  ASSERT_TRUE(engine->Put("b", "2").ok());
  ASSERT_TRUE(engine->Put("c", "3").ok());
  ASSERT_TRUE(engine->Delete("b").ok());
  auto it = engine->NewIterator();
  std::vector<std::string> keys;
  for (it->SeekToFirst(); it->Valid(); it->Next()) keys.push_back(it->key().ToString());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "c"}));
}

TEST(EngineTest, IteratorSeek) {
  auto engine = *Engine::Open({});
  for (int i = 0; i < 50; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i * 2);
    ASSERT_TRUE(engine->Put(key, "v").ok());
  }
  auto it = engine->NewIterator();
  it->Seek("k011");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k012");
}

TEST(EngineTest, RecoveryFromWal) {
  auto env = NewMemEnv();
  EngineOptions opts;
  opts.env = env.get();
  opts.dir = "db";
  {
    auto engine = *Engine::Open(opts);
    ASSERT_TRUE(engine->Put("persisted", "yes").ok());
    ASSERT_TRUE(engine->Put("also", "this").ok());
    // No explicit flush: data only in WAL + memtable.
  }
  auto engine = *Engine::Open(opts);
  std::string value;
  ASSERT_TRUE(engine->Get("persisted", &value).ok());
  EXPECT_EQ(value, "yes");
  ASSERT_TRUE(engine->Get("also", &value).ok());
  EXPECT_EQ(value, "this");
}

TEST(EngineTest, RecoveryAfterFlushAndCompaction) {
  auto env = NewMemEnv();
  EngineOptions opts = SmallEngineOptions();
  opts.env = env.get();
  opts.dir = "db";
  std::map<std::string, std::string> expected;
  {
    auto engine = *Engine::Open(opts);
    Random rnd(17);
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "key" + std::to_string(rnd.Uniform(300));
      const std::string value = rnd.String(40);
      ASSERT_TRUE(engine->Put(key, value).ok());
      expected[key] = value;
    }
    ASSERT_TRUE(engine->Flush().ok());
  }
  auto engine = *Engine::Open(opts);
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE(engine->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
}

TEST(EngineTest, GetVisibleDistinguishesTombstoneFromAbsent) {
  auto engine = *Engine::Open(EngineOptions{});
  ASSERT_TRUE(engine->Put("k", "v").ok());
  ASSERT_TRUE(engine->Delete("k").ok());
  ASSERT_TRUE(engine->Flush().ok());  // exercise the SSTable path too

  std::string value;
  bool found = false;
  EXPECT_TRUE(engine->GetVisible("k", &value, &found).IsNotFound());
  EXPECT_TRUE(found);  // present, as a tombstone
  EXPECT_TRUE(engine->GetVisible("never-written", &value, &found).IsNotFound());
  EXPECT_FALSE(found);  // genuinely absent

  ASSERT_TRUE(engine->Put("live", "yes").ok());
  ASSERT_TRUE(engine->GetVisible("live", &value, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, "yes");
}

TEST(EngineTest, BloomSkipsTablesAndCountsUsefulProbes) {
  EngineOptions opts;
  auto engine = *Engine::Open(opts);
  // Two L0 tables with *overlapping* key ranges so range pruning cannot
  // help, but disjoint key sets so blooms can.
  ASSERT_TRUE(engine->Put("a", "1").ok());
  ASSERT_TRUE(engine->Put("c", "2").ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Put("b", "3").ok());
  ASSERT_TRUE(engine->Put("d", "4").ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_EQ(engine->NumFilesAtLevel(0), 2);

  std::string value;
  // "c" lives only in the older table. L0 searches newest-first, so the
  // [b,d] table is consulted first: it overlaps "c" (range pruning cannot
  // reject it) but its bloom filter proves "c" absent without a block read.
  ASSERT_TRUE(engine->Get("c", &value).ok());
  EXPECT_EQ(value, "2");
  const EngineStats& stats = engine->stats();
  EXPECT_GT(stats.bloom_checked, 0u);
  EXPECT_GT(stats.bloom_useful, 0u);
  EXPECT_LE(stats.bloom_false_positive, stats.bloom_checked);
}

TEST(EngineTest, RangePruningCountsSkippedTables) {
  EngineOptions opts;
  auto engine = *Engine::Open(opts);
  ASSERT_TRUE(engine->Put("a1", "1").ok());
  ASSERT_TRUE(engine->Put("a2", "2").ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Put("z1", "3").ok());
  ASSERT_TRUE(engine->Put("z2", "4").ok());
  ASSERT_TRUE(engine->Flush().ok());

  std::string value;
  // L0 searches newest-first: the [z1,z2] table is reached first and
  // rejected on its key range alone before "a1" is found in the older one.
  ASSERT_TRUE(engine->Get("a1", &value).ok());
  EXPECT_GT(engine->stats().tables_pruned, 0u);
}

TEST(EngineTest, BloomDisabledEngineWritesLegacyTablesNewEngineReadsThem) {
  // The upgrade scenario: tables written before filters existed (v1) must
  // keep serving reads under a bloom-enabled engine after reopen.
  auto env = NewMemEnv();
  EngineOptions opts;
  opts.env = env.get();
  opts.dir = "db";
  opts.bloom_filters = false;
  {
    auto engine = *Engine::Open(opts);
    ASSERT_TRUE(engine->Put("old-key", "old-value").ok());
    ASSERT_TRUE(engine->Flush().ok());
  }
  opts.bloom_filters = true;
  auto engine = *Engine::Open(opts);
  std::string value;
  ASSERT_TRUE(engine->Get("old-key", &value).ok());
  EXPECT_EQ(value, "old-value");
  // Legacy tables have no filter, so no probes were issued against them.
  EXPECT_EQ(engine->stats().bloom_checked, 0u);
  // New writes flush v2 tables; now probes happen.
  ASSERT_TRUE(engine->Put("new-key", "new-value").ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Get("new-key", &value).ok());
  EXPECT_GT(engine->stats().bloom_checked, 0u);
}

TEST(EngineTest, ManifestReloadPreservesPruningMetadata) {
  // Key-range pruning and filter consultation both run off manifest
  // metadata; both must survive a close/reopen cycle.
  auto env = NewMemEnv();
  EngineOptions opts = SmallEngineOptions();
  opts.env = env.get();
  opts.dir = "db";
  {
    auto engine = *Engine::Open(opts);
    ASSERT_TRUE(engine->Put("aaa", "1").ok());
    ASSERT_TRUE(engine->Flush().ok());
    ASSERT_TRUE(engine->Put("zzz", "2").ok());
    ASSERT_TRUE(engine->Flush().ok());
  }
  auto engine = *Engine::Open(opts);
  std::string value;
  // L0 searches newest-first: the reloaded [zzz,zzz] table must be range-
  // pruned before "aaa" is found, and the older table's filter must load.
  ASSERT_TRUE(engine->Get("aaa", &value).ok());
  EXPECT_EQ(value, "1");
  EXPECT_GT(engine->stats().tables_pruned, 0u);
  EXPECT_GT(engine->stats().bloom_checked, 0u);
}

TEST(BoundedIteratorTest, RespectsBounds) {
  EngineOptions opts;
  opts.block_bytes = 64;  // several keys per block, several blocks per table
  auto engine = *Engine::Open(opts);
  char key[16];
  for (int i = 0; i < 100; ++i) {
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(engine->Put(key, std::to_string(i)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());

  // Bound inside the key space (and inside a data block).
  auto it = engine->NewBoundedIterator("k010", "k020");
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, 10);
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k010");

  // Seek below the lower bound clamps to it.
  it->Seek("a");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k010");
  // Seek past the upper bound invalidates.
  it->Seek("k020");
  EXPECT_FALSE(it->Valid());

  // Empty upper bound = unbounded above.
  auto open_end = engine->NewBoundedIterator("k090", Slice());
  count = 0;
  for (open_end->SeekToFirst(); open_end->Valid(); open_end->Next()) ++count;
  EXPECT_EQ(count, 10);

  // Bounds entirely past the largest key: nothing, and the only table is
  // pruned on metadata alone.
  const uint64_t pruned_before = engine->stats().tables_pruned;
  auto past = engine->NewBoundedIterator("x", Slice());
  past->SeekToFirst();
  EXPECT_FALSE(past->Valid());
  EXPECT_GT(engine->stats().tables_pruned, pruned_before);

  // Bounds entirely before the smallest key.
  auto before = engine->NewBoundedIterator("a", "b");
  before->SeekToFirst();
  EXPECT_FALSE(before->Valid());
}

TEST(BoundedIteratorTest, EmptyLowerBoundStartsAtFirstKey) {
  auto engine = *Engine::Open(EngineOptions{});
  ASSERT_TRUE(engine->Put("m", "1").ok());
  ASSERT_TRUE(engine->Flush().ok());
  auto it = engine->NewBoundedIterator(Slice(), Slice());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "m");
}

TEST(BoundedIteratorTest, SnapshotConsistentAcrossBounds) {
  auto engine = *Engine::Open(EngineOptions{});
  ASSERT_TRUE(engine->Put("k1", "old").ok());
  auto it = engine->NewBoundedIterator("k0", "k9");
  ASSERT_TRUE(engine->Put("k1", "new").ok());
  ASSERT_TRUE(engine->Put("k2", "invisible").ok());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "old");
  it->Next();
  EXPECT_FALSE(it->Valid());  // k2 written after the snapshot
}

TEST(EngineTest, StatsTrackWriteAmplification) {
  auto engine = *Engine::Open(SmallEngineOptions());
  Random rnd(19);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(engine->Put("key" + std::to_string(rnd.Uniform(1000)),
                            rnd.String(60)).ok());
  }
  const EngineStats& stats = engine->stats();
  EXPECT_GT(stats.ingest_bytes, 0u);
  EXPECT_GT(stats.wal_bytes, stats.ingest_bytes);  // WAL framing overhead
  EXPECT_GT(stats.flush_bytes, 0u);
  // LSM write amplification: total bytes written exceeds ingested payload.
  EXPECT_GT(stats.total_bytes_written(), stats.ingest_bytes);
}

TEST(EngineTest, AtomicWriteBatch) {
  auto engine = *Engine::Open({});
  WriteBatch batch;
  batch.Put("x", "1");
  batch.Put("y", "2");
  batch.Delete("x");
  ASSERT_TRUE(engine->Write(batch).ok());
  std::string value;
  EXPECT_TRUE(engine->Get("x", &value).IsNotFound());
  ASSERT_TRUE(engine->Get("y", &value).ok());
  EXPECT_EQ(value, "2");
}

TEST(EngineTest, EmptyBatchIsNoop) {
  auto engine = *Engine::Open({});
  WriteBatch batch;
  ASSERT_TRUE(engine->Write(batch).ok());
  EXPECT_EQ(engine->LastSequence(), 0u);
}

// Property-style sweep: random workload against an in-memory model across
// engine configurations.
class EnginePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EnginePropertyTest, MatchesModelUnderRandomOps) {
  EngineOptions opts;
  opts.memtable_bytes = static_cast<size_t>(GetParam());
  opts.sstable_target_bytes = 4 << 10;
  opts.level_base_bytes = 32 << 10;
  opts.l0_compaction_trigger = 3;
  auto engine = *Engine::Open(opts);
  std::map<std::string, std::string> model;
  Random rnd(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "k" + std::to_string(rnd.Uniform(200));
    const int op = static_cast<int>(rnd.Uniform(10));
    if (op < 7) {
      const std::string value = rnd.String(1 + rnd.Uniform(100));
      ASSERT_TRUE(engine->Put(key, value).ok());
      model[key] = value;
    } else if (op < 9) {
      ASSERT_TRUE(engine->Delete(key).ok());
      model.erase(key);
    } else {
      std::string got;
      Status s = engine->Get(key, &got);
      if (model.count(key)) {
        ASSERT_TRUE(s.ok()) << key;
        EXPECT_EQ(got, model[key]);
      } else {
        EXPECT_TRUE(s.IsNotFound()) << key;
      }
    }
  }
  // Full scan equals the model.
  auto it = engine->NewIterator();
  auto model_it = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++model_it) {
    ASSERT_NE(model_it, model.end());
    EXPECT_EQ(it->key().ToString(), model_it->first);
    EXPECT_EQ(it->value().ToString(), model_it->second);
  }
  EXPECT_EQ(model_it, model.end());
}

INSTANTIATE_TEST_SUITE_P(MemtableSizes, EnginePropertyTest,
                         ::testing::Values(2 << 10, 8 << 10, 64 << 10, 1 << 20));

}  // namespace
}  // namespace veloce::storage

namespace veloce::storage {
namespace {

// ---------------------------------------------------------------------------
// BlockCache
// ---------------------------------------------------------------------------

TEST(BlockCacheTest, InsertLookupEvict) {
  // One shard so the whole budget is a single LRU with deterministic order.
  BlockCache cache(/*capacity_bytes=*/1000, /*num_shards=*/1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, std::string(400, 'a'));
  cache.Insert(1, 1, std::string(400, 'b'));
  auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 'a');
  // A third block over capacity evicts the least-recently-used (block 1,
  // since block 0 was just touched).
  cache.Insert(1, 2, std::string(400, 'c'));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_LE(cache.usage_bytes(), 1000u);
}

TEST(BlockCacheTest, EvictFileDropsAllItsBlocks) {
  BlockCache cache(1 << 20);
  cache.Insert(7, 0, "x");
  cache.Insert(7, 1, "y");
  cache.Insert(8, 0, "z");
  cache.EvictFile(7);
  EXPECT_EQ(cache.Lookup(7, 0), nullptr);
  EXPECT_EQ(cache.Lookup(7, 1), nullptr);
  EXPECT_NE(cache.Lookup(8, 0), nullptr);
}

TEST(BlockCacheTest, SharedPtrSurvivesEviction) {
  BlockCache cache(20, /*num_shards=*/1);
  cache.Insert(1, 0, "pinned-content");
  auto pinned = cache.Lookup(1, 0);
  cache.Insert(1, 1, std::string(15, 'x'));  // over budget: evicts the LRU
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(*pinned, "pinned-content");  // still valid for the holder
}

TEST(BlockCacheTest, OversizedInsertRejectedNotPinned) {
  // Regression: a block larger than a shard's budget used to be admitted and
  // then pinned the cache over capacity forever (nothing left to evict).
  BlockCache cache(64, /*num_shards=*/1);
  cache.Insert(1, 0, "small");
  cache.Insert(1, 1, std::string(1000, 'x'));  // larger than total capacity
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);      // rejected outright
  EXPECT_NE(cache.Lookup(1, 0), nullptr);      // resident blocks untouched
  EXPECT_LE(cache.usage_bytes(), 64u);
}

TEST(BlockCacheTest, OversizedForShardBudgetRejected) {
  // With N shards each shard only controls capacity/N bytes, so a block can
  // be oversized for its shard even when smaller than the total capacity.
  BlockCache cache(1600, /*num_shards=*/16);
  cache.Insert(1, 0, std::string(500, 'x'));  // 500 > 1600/16
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.usage_bytes(), 0u);
}

TEST(BlockCacheTest, ShardedCountersSumAcrossShards) {
  BlockCache cache(1 << 20, /*num_shards=*/4);
  ASSERT_EQ(cache.num_shards(), 4u);
  for (uint64_t i = 0; i < 32; ++i) {
    cache.Insert(i, i, "v");
    ASSERT_NE(cache.Lookup(i, i), nullptr);
  }
  (void)cache.Lookup(999, 999);
  EXPECT_EQ(cache.hits(), 32u);
  EXPECT_EQ(cache.misses(), 1u);
  uint64_t shard_hits = 0, shard_misses = 0;
  size_t shard_usage = 0;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    shard_hits += cache.shard_hits(s);
    shard_misses += cache.shard_misses(s);
    shard_usage += cache.shard_usage_bytes(s);
  }
  EXPECT_EQ(shard_hits, cache.hits());
  EXPECT_EQ(shard_misses, cache.misses());
  EXPECT_EQ(shard_usage, cache.usage_bytes());
}

TEST(BlockCacheTest, ConcurrentReadersAndWriters) {
  // Counter reads take no lock; this test is the TSan target proving the
  // old unsynchronized-size_t race is gone.
  BlockCache cache(1 << 16, /*num_shards=*/4);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random rnd(1);
    for (int i = 0; i < 5000; ++i) {
      cache.Insert(rnd.Uniform(16), rnd.Uniform(64), std::string(64, 'w'));
    }
    stop.store(true);
  });
  std::thread reader([&] {
    Random rnd(2);
    while (!stop.load()) {
      (void)cache.Lookup(rnd.Uniform(16), rnd.Uniform(64));
    }
  });
  std::thread observer([&] {
    while (!stop.load()) {
      (void)cache.hits();
      (void)cache.misses();
      (void)cache.usage_bytes();
    }
  });
  writer.join();
  reader.join();
  observer.join();
  EXPECT_LE(cache.usage_bytes(), size_t{1 << 16});
}

TEST(BlockCacheTest, HitMissCounters) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, "v");
  (void)cache.Lookup(1, 0);
  (void)cache.Lookup(1, 0);
  (void)cache.Lookup(2, 0);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCacheTest, EngineGetsServeFromCache) {
  EngineOptions opts;
  opts.memtable_bytes = 8 << 10;
  auto engine = *Engine::Open(opts);
  Random rnd(3);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine->Put("key" + std::to_string(i), rnd.String(64)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  std::string value;
  ASSERT_TRUE(engine->Get("key42", &value).ok());
  const uint64_t hits_before = engine->block_cache()->hits();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine->Get("key42", &value).ok());
  }
  EXPECT_GE(engine->block_cache()->hits(), hits_before + 10);
}

// ---------------------------------------------------------------------------
// Concurrent write path: group commit, immutable memtables, background work
// ---------------------------------------------------------------------------

/// Defers everything: Schedule() queues, RunQueued() refuses to run. From
/// the engine's view this is a background executor that never gets CPU time
/// — exactly the state a crash interrupts, which the recovery tests need to
/// freeze. Tasks are dropped on destruction without running.
class DeferringExecutor final : public BackgroundExecutor {
 public:
  void Schedule(std::function<void()> fn) override {
    queue_.push_back(std::move(fn));
  }
  bool single_threaded() const override { return true; }
  size_t RunQueued() override { return 0; }
  size_t queue_depth() const override { return queue_.size(); }

 private:
  std::vector<std::function<void()>> queue_;
};

TEST(EngineWritePathTest, CorruptBatchAppliesNothing) {
  // Regression: Engine::Write used to apply a batch record-by-record, so a
  // corrupt record left earlier records applied (and sequence numbers
  // burned). The batch must validate up front and apply all-or-nothing.
  auto engine = *Engine::Open({});
  ASSERT_TRUE(engine->Put("stable", "before").ok());
  const uint64_t seq_before = engine->LastSequence();

  // One valid put followed by garbage: an undefined record tag.
  WriteBatch good;
  good.Put("poisoned", "value");
  std::string rep(good.rep().data(), good.rep().size());
  rep.push_back('\x7f');  // invalid tag where a second record would start
  WriteBatch corrupt;
  WriteBatchInternal::SetContentsUnchecked(&corrupt, rep);

  EXPECT_EQ(engine->Write(corrupt).code(), Code::kCorruption);
  // Nothing applied, no sequence burned, prior data intact.
  EXPECT_EQ(engine->LastSequence(), seq_before);
  std::string value;
  EXPECT_TRUE(engine->Get("poisoned", &value).IsNotFound());
  ASSERT_TRUE(engine->Get("stable", &value).ok());
  EXPECT_EQ(value, "before");
}

TEST(EngineWritePathTest, ImmutableMemtablesVisibleToReads) {
  // With a deferring executor, rotation seals memtables but nothing flushes;
  // reads must merge mem_ + every immutable + levels, newest first.
  DeferringExecutor executor;
  EngineOptions opts;
  opts.env = nullptr;
  opts.memtable_bytes = 4 << 10;
  opts.max_immutable_memtables = 100;  // no stalls: pile up immutables
  opts.background_executor = &executor;
  auto engine = *Engine::Open(opts);

  ASSERT_TRUE(engine->Put("k", "v0").ok());
  Random rnd(11);
  int i = 0;
  while (engine->NumImmutableMemTables() < 3) {
    ASSERT_TRUE(engine->Put("fill" + std::to_string(i++), rnd.String(256)).ok());
  }
  ASSERT_TRUE(engine->Put("k", "v-latest").ok());
  EXPECT_GE(engine->NumImmutableMemTables(), 3);
  EXPECT_EQ(engine->NumFilesAtLevel(0), 0);  // nothing flushed

  // Point reads see both the latest overwrite (active memtable) and keys
  // that only live in sealed memtables.
  std::string value;
  ASSERT_TRUE(engine->Get("k", &value).ok());
  EXPECT_EQ(value, "v-latest");
  ASSERT_TRUE(engine->Get("fill0", &value).ok());

  // Iterators merge immutables too.
  auto it = engine->NewBoundedIterator("fill0", "fill1");
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "fill0");
}

TEST(EngineWritePathTest, RecoveryWithRotatedWalPending) {
  // Crash while sealed memtables are still waiting on a background flush:
  // their retired WALs must survive and replay on reopen.
  auto env = NewMemEnv();
  DeferringExecutor executor;
  EngineOptions opts;
  opts.env = env.get();
  opts.dir = "db";
  opts.memtable_bytes = 4 << 10;
  opts.max_immutable_memtables = 100;
  opts.background_executor = &executor;

  std::map<std::string, std::string> expected;
  {
    auto engine = *Engine::Open(opts);
    Random rnd(23);
    int i = 0;
    while (engine->NumImmutableMemTables() < 3) {
      const std::string key = "key" + std::to_string(i++);
      const std::string value = rnd.String(200);
      ASSERT_TRUE(engine->Put(key, value).ok());
      expected[key] = value;
    }
    ASSERT_TRUE(engine->Put("tail", "in-active-memtable").ok());
    expected["tail"] = "in-active-memtable";
    // Crash: engine destroyed with >= 3 sealed memtables never flushed.
    // The queued flush closures must no-op, not crash, when dropped.
    EXPECT_GT(executor.queue_depth(), 0u);
  }

  // Multiple WAL files pending (one per sealed memtable + the active one).
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("db", &children).ok());
  int wal_files = 0;
  for (const auto& f : children) {
    if (f.rfind("wal-", 0) == 0) ++wal_files;
  }
  EXPECT_GE(wal_files, 4);

  auto engine = *Engine::Open(opts);
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE(engine->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
}

TEST(EngineWritePathTest, WalsReplayInSequenceOrder) {
  // Overwrites of one key land in different rotated WALs; replay order
  // (WAL number order == sequence order) decides which version wins.
  auto env = NewMemEnv();
  DeferringExecutor executor;
  EngineOptions opts;
  opts.env = env.get();
  opts.dir = "db";
  opts.memtable_bytes = 4 << 10;
  opts.max_immutable_memtables = 100;
  opts.background_executor = &executor;

  uint64_t final_seq = 0;
  {
    auto engine = *Engine::Open(opts);
    Random rnd(31);
    for (int generation = 0; generation < 3; ++generation) {
      ASSERT_TRUE(engine->Put("versioned", "gen" + std::to_string(generation)).ok());
      const int sealed = engine->NumImmutableMemTables();
      int i = 0;
      while (engine->NumImmutableMemTables() == sealed) {
        ASSERT_TRUE(engine
                        ->Put("pad" + std::to_string(generation) + "-" +
                                  std::to_string(i++),
                              rnd.String(256))
                        .ok());
      }
    }
    ASSERT_TRUE(engine->Put("versioned", "genfinal").ok());
    final_seq = engine->LastSequence();
  }

  auto engine = *Engine::Open(opts);
  std::string value;
  ASSERT_TRUE(engine->Get("versioned", &value).ok());
  EXPECT_EQ(value, "genfinal");
  // Recovery restored the exact sequence number, not just the data.
  EXPECT_EQ(engine->LastSequence(), final_seq);
}

TEST(EngineWritePathTest, WriteStallsCountedAndResolvedInline) {
  // A single-threaded executor that defers forever forces the stalled
  // writer to do one background unit inline; the stall is still accounted.
  DeferringExecutor executor;
  EngineOptions opts;
  opts.memtable_bytes = 4 << 10;
  opts.max_immutable_memtables = 1;
  opts.background_executor = &executor;
  auto engine = *Engine::Open(opts);

  Random rnd(41);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine->Put("key" + std::to_string(i), rnd.String(256)).ok());
  }
  const EngineStats& stats = engine->stats();
  EXPECT_GT(stats.write_stalls, 0u);
  EXPECT_GT(stats.num_flushes, 0u);
  for (int i = 0; i < 200; ++i) {
    std::string value;
    ASSERT_TRUE(engine->Get("key" + std::to_string(i), &value).ok()) << i;
  }
}

TEST(EngineWritePathTest, GroupCommitConcurrentWritersAllApplied) {
  // Many threads write through the group-commit queue; every batch must
  // apply exactly once (sequence accounting proves no merge lost a write).
  auto engine = *Engine::Open({});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WriteBatch batch;
        batch.Put("t" + std::to_string(t) + "-" + std::to_string(i), "v");
        batch.Put("shared", "t" + std::to_string(t));
        if (!engine->Write(batch).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine->LastSequence(), uint64_t{kThreads} * kPerThread * 2);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string value;
      ASSERT_TRUE(
          engine->Get("t" + std::to_string(t) + "-" + std::to_string(i), &value)
              .ok());
    }
  }
}

/// Writes `n` seeded random puts to an engine opened without an executor,
/// checking after every put that the write finished its own background
/// work; returns the final per-level (file count, bytes) layout.
std::vector<std::pair<int, uint64_t>> WriteWithoutExecutor(uint64_t seed, int n) {
  auto engine = *Engine::Open(SmallEngineOptions());
  Random rnd(seed);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < n && !::testing::Test::HasFailure(); ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(100));
    const std::string value = rnd.String(256);
    EXPECT_TRUE(engine->Put(key, value).ok());
    expected[key] = value;
    EXPECT_EQ(engine->NumImmutableMemTables(), 0) << "after put " << i;
    EXPECT_EQ(engine->metrics()->Value("veloce_storage_bg_queue_depth"), 0)
        << "after put " << i;
  }
  EXPECT_EQ(engine->LastSequence(), static_cast<uint64_t>(n));
  EXPECT_GT(engine->stats().num_flushes, 0u);
  EXPECT_GT(engine->stats().num_compactions, 0u);
  for (const auto& [key, value] : expected) {
    std::string got;
    EXPECT_TRUE(engine->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
  std::vector<std::pair<int, uint64_t>> layout;
  for (int level = 0; level < Engine::kNumLevels; ++level) {
    layout.emplace_back(engine->NumFilesAtLevel(level), engine->LevelBytes(level));
  }
  return layout;
}

TEST(EngineWritePathTest, NoExecutorFinishesBackgroundWorkInsideEachWrite) {
  // Zero wiring: the engine drains its own InlineExecutor at the end of
  // every write, so no sealed memtable or queued task outlives the write
  // that created it, and the resulting layout is a pure function of the
  // input.
  const auto first = WriteWithoutExecutor(51, 2000);
  const auto second = WriteWithoutExecutor(51, 2000);
  EXPECT_EQ(first, second);
}

TEST(EngineWritePathTest, NoStallBelowCompactionTrigger) {
  // An L0 stall threshold below the compaction trigger would wait for a
  // compaction that is never scheduled; the trigger bounds the stall.
  EngineOptions opts;
  opts.memtable_bytes = 4 << 10;
  opts.l0_compaction_trigger = 1000;
  opts.l0_stall_files = 2;
  auto engine = *Engine::Open(opts);
  Random rnd(71);
  for (int i = 0; engine->NumFilesAtLevel(0) < 5; ++i) {
    ASSERT_TRUE(engine->Put("key" + std::to_string(i), rnd.String(256)).ok());
  }
  EXPECT_EQ(engine->stats().write_stalls, 0u);
  EXPECT_EQ(engine->stats().num_compactions, 0u);
}

TEST(EngineWritePathTest, FlushDrainsImmutablesWithExecutor) {
  // Explicit Flush() must leave no data stranded in sealed memtables even
  // when the executor never ran the queued background work.
  DeferringExecutor executor;
  EngineOptions opts;
  opts.memtable_bytes = 4 << 10;
  opts.max_immutable_memtables = 100;
  opts.background_executor = &executor;
  auto engine = *Engine::Open(opts);

  Random rnd(61);
  int i = 0;
  while (engine->NumImmutableMemTables() < 2) {
    ASSERT_TRUE(engine->Put("key" + std::to_string(i++), rnd.String(256)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->NumImmutableMemTables(), 0);
  EXPECT_GT(engine->NumFilesAtLevel(0), 0);
  for (int j = 0; j < i; ++j) {
    std::string value;
    ASSERT_TRUE(engine->Get("key" + std::to_string(j), &value).ok()) << j;
  }
}

TEST(EngineWritePathTest, ThreadPoolExecutorDrainRunsEverything) {
  ThreadPoolExecutor pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.Schedule([&] { ran.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

}  // namespace
}  // namespace veloce::storage
