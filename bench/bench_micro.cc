// Microbenchmarks (google-benchmark) for the core building blocks: the
// storage engine, the KV layer, and the SQL front-end. Not tied to a paper
// figure; used to watch for regressions in the substrate the experiments
// stand on.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/random.h"
#include "kv/keys.h"
#include "kv/mvcc.h"
#include "sql/parser.h"
#include "storage/engine.h"

namespace veloce {
namespace {

// --- storage engine ----------------------------------------------------------

void BM_EnginePut(benchmark::State& state) {
  auto engine = std::move(storage::Engine::Open({})).value();
  Random rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->Put("key" + std::to_string(i++ % 100000), rng.String(128)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnginePut);

void BM_EngineGet(benchmark::State& state) {
  auto engine = std::move(storage::Engine::Open({})).value();
  Random rng(2);
  for (int i = 0; i < 50000; ++i) {
    VELOCE_CHECK_OK(engine->Put("key" + std::to_string(i), rng.String(128)));
  }
  uint64_t i = 0;
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->Get("key" + std::to_string(i++ % 50000), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineGet);

void BM_EngineScan100(benchmark::State& state) {
  auto engine = std::move(storage::Engine::Open({})).value();
  Random rng(3);
  for (int i = 0; i < 20000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);
    VELOCE_CHECK_OK(engine->Put(key, rng.String(64)));
  }
  for (auto _ : state) {
    auto it = engine->NewIterator();
    int n = 0;
    for (it->Seek("k00010000"); it->Valid() && n < 100; it->Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_EngineScan100);

// --- KV layer -----------------------------------------------------------------

void BM_KvBatchPut(benchmark::State& state) {
  kv::KVClusterOptions opts;
  opts.num_nodes = 3;
  kv::KVCluster cluster(opts);
  VELOCE_CHECK_OK(cluster.CreateTenantKeyspace(10));
  Random rng(4);
  uint64_t i = 0;
  const int batch_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    kv::BatchRequest req;
    req.tenant_id = 10;
    req.ts = cluster.Now();
    for (int r = 0; r < batch_size; ++r) {
      req.AddPut(kv::AddTenantPrefix(10, "k" + std::to_string(i++)), rng.String(64));
    }
    benchmark::DoNotOptimize(cluster.Send(req));
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_KvBatchPut)->Arg(1)->Arg(16)->Arg(64);

void BM_KvTxnCommit(benchmark::State& state) {
  kv::KVClusterOptions opts;
  opts.num_nodes = 3;
  kv::KVCluster cluster(opts);
  VELOCE_CHECK_OK(cluster.CreateTenantKeyspace(10));
  Random rng(5);
  uint64_t i = 0;
  for (auto _ : state) {
    kv::Transaction txn(&cluster, 10);
    VELOCE_CHECK_OK(txn.Put(kv::AddTenantPrefix(10, "t" + std::to_string(i++)), "v"));
    VELOCE_CHECK_OK(txn.Put(kv::AddTenantPrefix(10, "t" + std::to_string(i++)), "v"));
    benchmark::DoNotOptimize(txn.Commit());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvTxnCommit);

// One key, "hot", with `versions` committed versions at ts 10, 20, ...: the
// first half flushed to an SST together with 1,000 single-version
// neighbours, the rest in the memtable. Reads at the newest timestamp should
// cost the same at any depth.
std::unique_ptr<storage::Engine> OpenMvccHistory(int versions) {
  storage::EngineOptions opts;
  opts.prefix_extractor = kv::MvccPrefixExtractor;
  auto engine = std::move(storage::Engine::Open(opts)).value();
  Random rng(6);
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    storage::WriteBatch batch;
    kv::MvccPutValue(&batch, key, {10, 0}, rng.String(64));
    VELOCE_CHECK_OK(engine->Write(batch));
  }
  for (int v = 1; v <= versions; ++v) {
    if (v == versions / 2 + 1) VELOCE_CHECK_OK(engine->Flush());
    storage::WriteBatch batch;
    kv::MvccPutValue(&batch, "hot", {v * 10, 0}, rng.String(64));
    VELOCE_CHECK_OK(engine->Write(batch));
  }
  return engine;
}

void BM_MvccGetVersions(benchmark::State& state) {
  const int versions = static_cast<int>(state.range(0));
  auto engine = OpenMvccHistory(versions);
  const kv::Timestamp newest{versions * 10, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv::MvccGet(engine.get(), "hot", newest));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccGetVersions)->Arg(1)->Arg(1000);

// The read-refresh probe of a txn that read "hot" at its newest version and
// commits later with nothing written in between.
void BM_MvccRefreshVersions(benchmark::State& state) {
  const int versions = static_cast<int>(state.range(0));
  auto engine = OpenMvccHistory(versions);
  const kv::Timestamp newest{versions * 10, 0};
  const kv::Timestamp commit{versions * 10 + 100, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kv::MvccAnyNewerVersions(engine.get(), "hot", "hou", newest, commit));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvccRefreshVersions)->Arg(1)->Arg(1000);

// --- SQL front-end --------------------------------------------------------------

void BM_SqlParse(benchmark::State& state) {
  const std::string sql =
      "SELECT a, SUM(b * (1 - c)) AS total FROM t JOIN u ON t.id = u.tid "
      "WHERE a > 10 AND d = 'x' GROUP BY a ORDER BY total DESC LIMIT 10";
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parse(sql));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlParse);

void BM_SqlPointSelect(benchmark::State& state) {
  auto stack = bench::MakeSqlStack(sql::ProcessMode::kSeparateProcess);
  VELOCE_CHECK(stack->session->Execute("CREATE TABLE t (id INT PRIMARY KEY, v STRING)").ok());
  for (int i = 0; i < 1000; ++i) {
    VELOCE_CHECK(stack->session->Execute(
        "INSERT INTO t VALUES (" + std::to_string(i) + ", 'value')").ok());
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack->session->Execute(
        "SELECT v FROM t WHERE id = " + std::to_string(i++ % 1000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlPointSelect);

void BM_SqlInsert(benchmark::State& state) {
  auto stack = bench::MakeSqlStack(sql::ProcessMode::kSeparateProcess);
  VELOCE_CHECK(stack->session->Execute("CREATE TABLE t (id INT PRIMARY KEY, v STRING)").ok());
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack->session->Execute(
        "INSERT INTO t VALUES (" + std::to_string(i++) + ", 'value')"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlInsert);

}  // namespace
}  // namespace veloce

BENCHMARK_MAIN();
