// The four workloads. Each builds its own cluster through public
// constructors, loads data, then runs a fixed amount of closed-loop work
// produced by gen.h, timing each op around the public call only. Between
// ops the sim event loop runs its ready events (flushes, compactions,
// pool refills): outside the latency timer, inside the throughput window.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "gen.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/transaction.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "run.h"
#include "seams.h"
#include "serverless/cluster.h"
#include "sql/parser.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using veloce::Status;
using veloce::StatusOr;
using veloce::serverless::Proxy;
using veloce::serverless::ServerlessCluster;
using veloce::sql::ResultSet;
using Connection = Proxy::Connection;

// Work per run second. A run does `seconds` x this many ops, a fixed
// amount of work on every commit: per-op cost grows with the versions a
// hot row has taken, so a time-bounded run would give a faster program
// more work. Sized so a run takes about `seconds` on a 4-core 2.1 GHz
// Xeon with the RelWithDebInfo build.
constexpr uint64_t kYcsbOpsPerSecond = 15000;
constexpr uint64_t kTpccTxnsPerSecond = 450;
constexpr uint64_t kWakesPerSecond = 1500;
constexpr uint64_t kContendTxnsPerSecond = 3000;

// Client connections are re-opened every this many ops on the warm
// workloads, so every workload reports connect-to-first-result latency.
constexpr uint64_t kYcsbOpsPerConnection = 100;
constexpr uint64_t kTpccTxnsPerConnection = 4;

constexpr size_t kMaxSpans = 2'000'000;
constexpr int kMaxAttempts = 10000;  ///< client restarts before an op fails

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

bool Retryable(const Status& s) {
  return s.IsTransactionRetry() || s.IsWriteIntentError() ||
         s.code() == veloce::Code::kTransactionAborted;
}

/// Registry totals of the series the per-layer metrics read, labels
/// summed, read at each end of the measured window. Sum() copies only the
/// histograms of the name asked for, where Snapshot() would copy every
/// histogram of every node and tenant.
using Totals = std::map<std::string, double>;

Totals TakeTotals(const veloce::obs::MetricsRegistry* m) {
  static const char* kNames[] = {
      "veloce_sql_marshal_cpu_ns_total", "veloce_sql_marshaled_bytes_total",
      "veloce_sql_kv_batches_total", "veloce_sql_rows_scanned_total",
      "veloce_sql_range_cache_hits_total", "veloce_sql_range_cache_misses_total",
      "veloce_kv_read_batches_total", "veloce_kv_write_batches_total",
      "veloce_kv_write_bytes_total", "veloce_kv_intent_conflicts_total",
      "veloce_txn_retries_total", "veloce_admission_admitted_total",
      "veloce_admission_wq_throttled_total", "veloce_serverless_acquires_total",
      "veloce_storage_block_cache_hits", "veloce_storage_block_cache_misses",
      "veloce_storage_bloom_useful_total", "veloce_storage_bloom_checked_total",
      "veloce_storage_flushes_total", "veloce_storage_compactions_total",
      "veloce_storage_write_stalls_total", "veloce_storage_wal_bytes",
      "veloce_storage_flush_bytes", "veloce_storage_compact_write_bytes"};
  Totals t;
  for (const char* name : kNames) t[name] = m->Sum(name);
  t["veloce_serverless_acquires_total{path=cold}"] =
      m->Value("veloce_serverless_acquires_total", {{"path", "cold"}});
  return t;
}

double Delta(const Totals& a, const Totals& b, const std::string& name) {
  auto ia = a.find(name);
  auto ib = b.find(name);
  return (ib == b.end() ? 0 : ib->second) - (ia == a.end() ? 0 : ia->second);
}

std::string Cents(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld", static_cast<long long>(cents / 100),
                static_cast<long long>(cents % 100));
  return buf;
}

struct EnvSnap {
  int64_t append_bytes = 0, syncs = 0, read_bytes = 0, io_ns = 0;
};

EnvSnap TakeEnv(const Seams* seams) {
  EnvSnap s;
  if (seams == nullptr) return s;
  const EnvCounts& c = seams->env.counts();
  s.append_bytes = c.append_bytes;
  s.syncs = c.syncs;
  s.read_bytes = c.read_bytes;
  s.io_ns = c.io_ns;
  return s;
}

/// Raw inputs of the per-layer metrics. A workload leaves what does not
/// apply to it empty; that metric then reads 0.
struct LayerInputs {
  double ops = 1;
  const Totals* t0 = nullptr;  ///< registry totals at window start
  const Totals* t1 = nullptr;  ///< ... and end
  const Samples* connect_wall = nullptr;
  const Samples* connect_sim = nullptr;
  const Samples* parse = nullptr;
  const Samples* create = nullptr;
  const Samples* hot_read_kv = nullptr;
  const Samples* cold_read_kv = nullptr;
  const Samples* kv_get = nullptr;
  const Samples* kv_put = nullptr;
  const Samples* kv_commit = nullptr;
  double request_units = 0;  ///< billed to the workload's tenants in the window
  int64_t pump_ns = 0, op_wall_ns = 0, op_thread_cpu_ns = 0, kv_cpu_ns = 0;
  int64_t connect_span_ns = 0;
  EnvSnap env0, env1;
  int64_t deliveries = 0;
  double hot_key_versions = 0;
  uint64_t attempts = 0;  ///< op attempts incl. client restarts (0: none made)
  size_t ranges = 0;
  size_t spans = 0;
};

void EmitLayers(const LayerInputs& in, RunResult* r) {
  static const Samples kEmpty;
  auto d = [&in](const char* name) { return Delta(*in.t0, *in.t1, name); };
  auto q = [](const Samples* s, double p) { return (s != nullptr ? s : &kEmpty)->QuantileMs(p); };
  auto mean = [](const Samples* s) { return (s != nullptr ? s : &kEmpty)->MeanMs(); };
  const double us = 1e3, ops = in.ops;
  const double marshal_ns = d("veloce_sql_marshal_cpu_ns_total");
  const double sql_cpu_ns = static_cast<double>(in.op_thread_cpu_ns - in.kv_cpu_ns);
  r->Layer("serverless.connect_us_p50", q(in.connect_wall, 0.5) * us, "us");
  r->Layer("serverless.connect_us_p99", q(in.connect_wall, 0.99) * us, "us");
  r->Layer("serverless.cold_wake_share",
           Ratio(d("veloce_serverless_acquires_total{path=cold}"),
                 d("veloce_serverless_acquires_total")),
           "ratio");
  r->Layer("serverless.wake_sim_ms_p50", q(in.connect_sim, 0.5), "sim_ms");
  r->Layer("serverless.wake_sim_ms_p99", q(in.connect_sim, 0.99), "sim_ms");
  r->Layer("sim.pump_us_per_op", static_cast<double>(in.pump_ns) / us / ops, "us");
  r->Layer("sql.parse_us", q(in.parse, 0.5) * us, "us");
  r->Layer("sql.self_cpu_us_per_op", std::max(0.0, sql_cpu_ns - marshal_ns) / us / ops, "us");
  r->Layer("sql.marshal_cpu_us_per_op", marshal_ns / us / ops, "us");
  r->Layer("sql.marshaled_bytes_per_op", d("veloce_sql_marshaled_bytes_total") / ops, "B");
  r->Layer("sql.kv_batches_per_op", d("veloce_sql_kv_batches_total") / ops, "count");
  r->Layer("sql.rows_scanned_per_op", d("veloce_sql_rows_scanned_total") / ops, "count");
  const double hits = d("veloce_sql_range_cache_hits_total");
  const double misses = d("veloce_sql_range_cache_misses_total");
  r->Layer("sql.range_cache_miss_ratio", Ratio(misses, hits + misses), "ratio");
  r->Layer("kv.cpu_us_per_op", static_cast<double>(in.kv_cpu_ns) / us / ops, "us");
  r->Layer("kv.hot_read_cpu_us", mean(in.hot_read_kv) * us, "us");
  r->Layer("kv.cold_read_cpu_us", mean(in.cold_read_kv) * us, "us");
  r->Layer("kv.hot_key_versions", in.hot_key_versions, "count");
  r->Layer("kv.read_batches_per_op", d("veloce_kv_read_batches_total") / ops, "count");
  r->Layer("kv.write_batches_per_op", d("veloce_kv_write_batches_total") / ops, "count");
  r->Layer("kv.replication_deliveries_per_op", static_cast<double>(in.deliveries) / ops,
           "count");
  r->Layer("kv.txn_retries_per_op", d("veloce_txn_retries_total") / ops, "count");
  r->Layer("kv.intent_conflicts_per_op", d("veloce_kv_intent_conflicts_total") / ops, "count");
  r->Layer("kv.commit_attempt_ratio",
           in.attempts == 0 ? 1.0 : static_cast<double>(in.attempts) / ops, "ratio");
  r->Layer("kv.get_us_p50", q(in.kv_get, 0.5) * us, "us");
  r->Layer("kv.put_us_p50", q(in.kv_put, 0.5) * us, "us");
  r->Layer("kv.commit_us_p50", q(in.kv_commit, 0.5) * us, "us");
  r->Layer("kv.commit_us_p99", q(in.kv_commit, 0.99) * us, "us");
  r->Layer("kv.ranges", static_cast<double>(in.ranges), "count");
  r->Layer("admission.admitted_per_op", d("veloce_admission_admitted_total") / ops, "count");
  r->Layer("admission.wq_throttled_per_op", d("veloce_admission_wq_throttled_total") / ops,
           "count");
  r->Layer("billing.ru_per_op", in.request_units / ops, "RU");
  r->Layer("tenant.create_us", q(in.create, 0.5) * us, "us");
  const double bc_hits = d("veloce_storage_block_cache_hits");
  const double bc_misses = d("veloce_storage_block_cache_misses");
  r->Layer("storage.block_cache_hit_ratio", Ratio(bc_hits, bc_hits + bc_misses), "ratio");
  r->Layer("storage.bloom_useful_ratio",
           Ratio(d("veloce_storage_bloom_useful_total"), d("veloce_storage_bloom_checked_total")),
           "ratio");
  r->Layer("storage.flushes_per_1k_ops", d("veloce_storage_flushes_total") * 1e3 / ops, "count");
  r->Layer("storage.compactions_per_1k_ops", d("veloce_storage_compactions_total") * 1e3 / ops,
           "count");
  r->Layer("storage.write_stalls_per_1k_ops", d("veloce_storage_write_stalls_total") * 1e3 / ops,
           "count");
  r->Layer("storage.write_amp",
           Ratio(d("veloce_storage_wal_bytes") + d("veloce_storage_flush_bytes") +
                     d("veloce_storage_compact_write_bytes"),
                 d("veloce_kv_write_bytes_total")),
           "ratio");
  r->Layer("storage.file_read_bytes_per_op",
           static_cast<double>(in.env1.read_bytes - in.env0.read_bytes) / ops, "B");
  r->Layer("storage.file_write_bytes_per_op",
           static_cast<double>(in.env1.append_bytes - in.env0.append_bytes) / ops, "B");
  r->Layer("storage.syncs_per_op", static_cast<double>(in.env1.syncs - in.env0.syncs) / ops,
           "count");
  // Self time per layer, from the benchmark's spans and the counters read
  // around them. Storage I/O time is counted inside kv and pump time too.
  r->Layer("self.serverless_us_per_op", static_cast<double>(in.connect_span_ns) / us / ops, "us");
  r->Layer("self.sim_us_per_op", static_cast<double>(in.pump_ns) / us / ops, "us");
  r->Layer("self.sql_us_per_op", sql_cpu_ns / us / ops, "us");
  r->Layer("self.kv_us_per_op", static_cast<double>(in.kv_cpu_ns) / us / ops, "us");
  r->Layer("self.storage_us_per_op",
           static_cast<double>(in.env1.io_ns - in.env0.io_ns) / us / ops, "us");
  r->Layer("trace.unaccounted_share",
           Ratio(static_cast<double>(in.op_wall_ns - in.op_thread_cpu_ns),
                 static_cast<double>(in.op_wall_ns)),
           "ratio");
  r->Layer("trace.spans", static_cast<double>(in.spans), "count");
}

/// Background work the window's pumps completed, read in every run.
struct Background {
  double flushes = 0, compactions = 0;
};

Background TakeBackground(const veloce::obs::MetricsRegistry* m) {
  return {m->Sum("veloce_storage_flushes_total"), m->Sum("veloce_storage_compactions_total")};
}

/// setup_s is the median of at least kMinSetupReps set-ups, repeated until
/// they add up to kMinSetupSeconds (a short set-up's median needs more
/// samples to be steady), at most kMaxSetupReps.
constexpr int kMinSetupReps = 3;
constexpr double kMinSetupSeconds = 2.0;
constexpr int kMaxSetupReps = 40;

bool MoreSetups(int done, double total_s) {
  if (done < kMinSetupReps) return true;
  return total_s < kMinSetupSeconds && done < kMaxSetupReps;
}

/// A ServerlessCluster plus, in traced runs, the counting seams it was
/// built with. Seams are declared first so they outlive the cluster.
struct ClusterHandle {
  std::unique_ptr<Seams> seams;
  std::unique_ptr<ServerlessCluster> cluster;
};

ClusterHandle MakeCluster(uint64_t seed, bool trace) {
  ClusterHandle h;
  ServerlessCluster::Options o;
  o.seed = SubSeed(seed, "cluster");
  if (trace) {
    h.seams = std::make_unique<Seams>();
    o.kv.engine_options.env = &h.seams->env;
    o.kv.transport = &h.seams->transport;
  }
  h.cluster = std::make_unique<ServerlessCluster>(o);
  return h;
}

/// Measurement state shared by the three SQL workloads.
class SqlHarness {
 public:
  explicit SqlHarness(const RunOptions& opts)
      : opts_(opts), tracer_(opts.trace, kMaxSpans) {}

  const RunOptions& opts() const { return opts_; }
  Tracer& tracer() { return tracer_; }
  ServerlessCluster& cluster() { return *handle_.cluster; }

  /// Times set-ups (each builds a fresh cluster and loads it) and keeps
  /// the last cluster for the measured window. See SetupReps.
  template <typename Load>
  void Setup(Load load) {
    double total_s = 0;
    for (int rep = 0; MoreSetups(rep, total_s); ++rep) {
      handle_ = ClusterHandle{};  // tear the previous one down untimed
      const int64_t t0 = NowNs();
      handle_ = MakeCluster(opts_.seed, opts_.trace);
      tenants_.clear();
      load(*handle_.cluster);
      handle_.cluster->loop()->Run();  // drain flushes and pool refills
      setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      total_s += setup_s_.back();
    }
    ranges_ = handle_.cluster->kv_cluster()->Ranges().size();
  }

  StatusOr<veloce::kv::TenantId> CreateTenant(ServerlessCluster& c, const std::string& name) {
    const int64_t t0 = NowNs();
    auto meta = c.CreateTenant(name);
    create_.Add(NowNs() - t0);
    if (!meta.ok()) return meta.status();
    tenants_.push_back(meta->id);
    return meta->id;
  }

  struct Connected {
    int64_t issued_ns = 0;  ///< wall time of the Connect call
    veloce::Nanos issued_sim = 0;
    StatusOr<Connection*> conn = Status::DeadlineExceeded("connect never completed");
  };

  /// Issues Proxy::Connect for each tenant, then steps the sim loop until
  /// every callback ran. Fills the connect samples (wall and sim time).
  std::vector<Connected> ConnectAll(const std::vector<veloce::kv::TenantId>& tenants,
                                    uint64_t op) {
    ServerlessCluster& c = cluster();
    // Shared with the callbacks, which could outlive this call if a
    // connect never completes.
    struct State {
      std::vector<Connected> pending;
      size_t remaining = 0;
    };
    auto state = std::make_shared<State>();
    state->pending.resize(tenants.size());
    state->remaining = tenants.size();
    const int64_t span = tracer_.Begin("connect", op);
    for (size_t i = 0; i < tenants.size(); ++i) {
      state->pending[i].issued_ns = NowNs();
      state->pending[i].issued_sim = c.loop()->Now();
      c.proxy()->Connect(tenants[i], "10.0.0.1",
                         [this, state, i, &c](StatusOr<Connection*> conn) {
                           Connected& p = state->pending[i];
                           connect_wall_.Add(NowNs() - p.issued_ns);
                           connect_sim_.Add(c.loop()->Now() - p.issued_sim);
                           p.conn = std::move(conn);
                           --state->remaining;
                         });
    }
    const veloce::Nanos deadline = c.loop()->Now() + 10 * veloce::kMinute;
    while (state->remaining > 0 && c.loop()->Now() < deadline && c.loop()->Step()) {
    }
    tracer_.End(span);
    if (span >= 0) {
      const Span& s = tracer_.spans()[static_cast<size_t>(span)];
      connect_span_ns_ += s.end_ns - s.start_ns;
    }
    return state->pending;
  }

  /// Runs one statement of op `op`. `cls` (read or write samples) may be
  /// null. In traced runs also reads the connector's KV CPU and the
  /// thread's CPU around the call, and times sql::Parse on the same text.
  StatusOr<ResultSet> Exec(Connection* conn, const std::string& sql, uint64_t op,
                           int64_t parent, Samples* cls, bool idempotent = true) {
    veloce::sql::KvConnector* kv = opts_.trace ? conn->node->connector() : nullptr;
    const int64_t kv0 = kv != nullptr ? kv->kv_cpu_nanos() : 0;
    const int64_t cpu0 = opts_.trace ? ThreadCpuNs() : 0;
    const int64_t t0 = NowNs();
    StatusOr<ResultSet> r = cluster().ExecuteSync(conn, sql, idempotent);
    const int64_t t1 = NowNs();
    if (cls != nullptr) cls->Add(t1 - t0);
    if (wake_start_ns_ != 0 && cls != nullptr) {
      wakes_.Add(t1 - wake_start_ns_);
      wake_start_ns_ = 0;
    }
    ++statements_;
    if (!r.ok()) ++failed_statements_;
    if (opts_.trace) {
      const int64_t cpu = ThreadCpuNs() - cpu0;
      last_kv_cpu_ = kv->kv_cpu_nanos() - kv0;
      op_thread_cpu_ns_ += cpu;
      kv_cpu_ns_ += last_kv_cpu_;
      const int64_t span = tracer_.Add("statement", op, t0, t1, parent);
      tracer_.AddCounter(span, "kv_cpu_ns", last_kv_cpu_);
      tracer_.AddCounter(span, "thread_cpu_ns", cpu);
      const int64_t p0 = NowNs();
      const bool parsed = veloce::sql::Parse(sql).ok();
      const int64_t p1 = NowNs();
      parse_.Add(p1 - p0);
      if (!parsed) ++unparsed_;
      tracer_.Add("parse", op, p0, p1);
    }
    return r;
  }

  /// The next read or write statement's result ends a wake that began at
  /// `start_ns` (the Connect call): wake latency is Connect to the first
  /// result that carries data (not BEGIN's).
  void ArmWake(int64_t start_ns) { wake_start_ns_ = start_ns; }

  /// KV CPU of the most recent Exec (traced runs).
  int64_t last_kv_cpu() const { return last_kv_cpu_; }

  /// Runs the sim loop's ready events: background flushes and compactions
  /// scheduled by the op, and pool refills that are due.
  void Pump(uint64_t op) {
    const int64_t t0 = NowNs();
    cluster().loop()->RunUntil(cluster().loop()->Now());
    const int64_t t1 = NowNs();
    pump_ns_ += t1 - t0;
    tracer_.Add("pump", op, t0, t1);
  }

  /// Opens the op's span; `start_ns` defaults to now.
  int64_t BeginOp(uint64_t op, int64_t start_ns = 0) {
    return tracer_.Add("op", op, start_ns != 0 ? start_ns : NowNs(), 0);
  }
  void EndOp(int64_t span, int64_t start_ns, bool ok) {
    const int64_t end = NowNs();
    ops_.Add(end - start_ns);
    op_wall_ns_ += end - start_ns;
    if (!ok) ++failed_ops_;
    tracer_.End(span);
  }

  /// Request units billed so far to the workload's tenants. Billing reads
  /// the SQL nodes' counters, so this harvests them first; a workload that
  /// removes nodes calls it before each removal.
  double BilledRequestUnits() {
    cluster().HarvestUsage();
    double ru = 0;
    for (veloce::kv::TenantId t : tenants_) ru += cluster().meter()->Current(t).request_units;
    return ru;
  }

  void BeginWindow() {
    bg0_ = TakeBackground(cluster().metrics());
    if (opts_.trace) {
      totals0_ = TakeTotals(cluster().metrics());
      ru0_ = BilledRequestUnits();
    }
    env0_ = TakeEnv(handle_.seams.get());
    deliveries0_ = handle_.seams ? handle_.seams->transport.deliveries() : 0;
    cpu0_ = ProcessCpuNs();
    wall0_ = NowNs();
  }
  void EndWindow() {
    wall1_ = NowNs();
    cpu1_ = ProcessCpuNs();
    bg1_ = TakeBackground(cluster().metrics());
    if (opts_.trace) {
      totals1_ = TakeTotals(cluster().metrics());
      ru1_ = BilledRequestUnits();
    }
    env1_ = TakeEnv(handle_.seams.get());
    deliveries1_ = handle_.seams ? handle_.seams->transport.deliveries() : 0;
  }

  Samples& reads() { return reads_; }
  Samples& writes() { return writes_; }
  Samples& wakes() { return wakes_; }
  Samples& hot_read_kv() { return hot_read_kv_; }
  Samples& cold_read_kv() { return cold_read_kv_; }
  void set_hot_key_versions(double v) { hot_key_versions_ = v; }
  void add_attempts(uint64_t n) { attempts_ += n; }

  /// Fills the end-to-end metrics and, in traced runs, the per-layer ones.
  void Finish(RunResult* r) {
    const double ops = static_cast<double>(std::max<size_t>(1, ops_.count()));
    r->attempted = ops_.count();
    r->failed_ops = failed_ops_;
    const double window_s = static_cast<double>(wall1_ - wall0_) / 1e9;
    r->E2E("setup_s", Median(setup_s_), "s");
    r->E2E("throughput_ops_s", Ratio(ops, window_s), "1/s");
    r->E2E("p50_ms", ops_.QuantileMs(0.50), "ms");
    r->E2E("p99_ms", ops_.QuantileMs(0.99), "ms");
    r->E2E("read_p50_ms", reads_.QuantileMs(0.50), "ms");
    r->E2E("read_p99_ms", reads_.QuantileMs(0.99), "ms");
    r->E2E("write_p50_ms", writes_.QuantileMs(0.50), "ms");
    r->E2E("write_p99_ms", writes_.QuantileMs(0.99), "ms");
    r->E2E("wake_p50_ms", wakes_.QuantileMs(0.50), "ms");
    r->E2E("wake_p99_ms", wakes_.QuantileMs(0.99), "ms");
    r->E2E("cpu_us_per_op", static_cast<double>(cpu1_ - cpu0_) / 1e3 / ops, "us");
    r->E2E("failed_ratio",
           static_cast<double>(failed_ops_ + r->violations()) / ops, "ratio");
    r->E2E("peak_rss_mb", PeakRssMb(), "MB");
    NoteSamples(r, "op", ops_);
    NoteSamples(r, "read", reads_);
    NoteSamples(r, "write", writes_);
    NoteSamples(r, "wake", wakes_);
    r->notes.push_back("set-ups timed: " + std::to_string(setup_s_.size()));
    r->notes.push_back("statements: " + std::to_string(statements_) + " (" +
                       std::to_string(failed_statements_) + " failed)");
    char bg[96];
    std::snprintf(bg, sizeof(bg), "background work in window: %.0f flushes, %.0f compactions",
                  bg1_.flushes - bg0_.flushes, bg1_.compactions - bg0_.compactions);
    r->notes.push_back(bg);
    if (opts_.trace) FinishLayers(r, ops);
  }

 private:
  static void NoteSamples(RunResult* r, const std::string& cls, const Samples& s) {
    std::string note = cls + " samples: " + std::to_string(s.count());
    if (!s.HasTail(0.99)) note += " (fewer than 10 beyond p99: p99 is the maximum's neighbourhood)";
    r->notes.push_back(note);
  }

  void FinishLayers(RunResult* r, double ops) {
    LayerInputs in;
    in.ops = ops;
    in.t0 = &totals0_;
    in.t1 = &totals1_;
    in.connect_wall = &connect_wall_;
    in.connect_sim = &connect_sim_;
    in.parse = &parse_;
    in.create = &create_;
    in.hot_read_kv = &hot_read_kv_;
    in.cold_read_kv = &cold_read_kv_;
    in.request_units = ru1_ - ru0_;
    in.pump_ns = pump_ns_;
    in.op_wall_ns = op_wall_ns_;
    in.op_thread_cpu_ns = op_thread_cpu_ns_;
    in.kv_cpu_ns = kv_cpu_ns_;
    in.connect_span_ns = connect_span_ns_;
    in.env0 = env0_;
    in.env1 = env1_;
    in.deliveries = deliveries1_ - deliveries0_;
    in.hot_key_versions = hot_key_versions_;
    in.attempts = attempts_;
    in.ranges = ranges_;
    in.spans = tracer_.size();
    EmitLayers(in, r);
    if (unparsed_ > 0) {
      r->notes.push_back(std::to_string(unparsed_) + " statements failed sql::Parse");
    }
    if (tracer_.dropped() > 0) {
      r->notes.push_back("spans dropped past the in-memory cap: " +
                         std::to_string(tracer_.dropped()));
    }
  }

  RunOptions opts_;
  Tracer tracer_;
  ClusterHandle handle_;
  std::vector<double> setup_s_;
  size_t ranges_ = 0;
  Samples ops_, reads_, writes_, wakes_, connect_wall_, connect_sim_, parse_, create_;
  Samples hot_read_kv_, cold_read_kv_;
  double hot_key_versions_ = 0;
  uint64_t attempts_ = 0;
  std::vector<veloce::kv::TenantId> tenants_;  ///< created by the kept set-up
  double ru0_ = 0, ru1_ = 0;
  Background bg0_, bg1_;
  uint64_t statements_ = 0, failed_statements_ = 0, failed_ops_ = 0, unparsed_ = 0;
  int64_t pump_ns_ = 0, op_wall_ns_ = 0, op_thread_cpu_ns_ = 0, kv_cpu_ns_ = 0;
  int64_t connect_span_ns_ = 0, last_kv_cpu_ = 0, wake_start_ns_ = 0;
  int64_t wall0_ = 0, wall1_ = 0, cpu0_ = 0, cpu1_ = 0;
  int64_t deliveries0_ = 0, deliveries1_ = 0;
  EnvSnap env0_, env1_;
  Totals totals0_, totals1_;
};

/// Connects one tenant (the warm workloads' reconnects).
StatusOr<Connection*> ConnectOne(SqlHarness& h, veloce::kv::TenantId tenant, uint64_t op) {
  return std::move(h.ConnectAll({tenant}, op).front().conn);
}

void WriteTrace(SqlHarness& h, RunResult* r) {
  if (!h.opts().trace) return;
  const std::string path =
      h.opts().out_dir + "/trace-" + h.opts().workload + ".json";
  r->notes.push_back(WriteChromeTrace(path, {&h.tracer()}) ? "spans written to " + path
                                                            : "FAILED to write " + path);
}

}  // namespace

// --- ycsb-b -----------------------------------------------------------------

RunResult RunYcsbB(const RunOptions& opts) {
  const YcsbConfig cfg;
  const uint64_t num_ops = static_cast<uint64_t>(opts.seconds) * kYcsbOpsPerSecond;
  const YcsbStream stream = MakeYcsb(cfg, opts.seed, num_ops);
  SqlHarness h(opts);
  RunResult r;
  veloce::kv::TenantId tenant = 0;
  h.Setup([&](ServerlessCluster& c) {
    auto t = h.CreateTenant(c, "ycsb");
    VELOCE_CHECK(t.ok()) << t.status().ToString();
    tenant = *t;
    auto conn = c.ConnectSync(tenant);
    VELOCE_CHECK(conn.ok()) << conn.status().ToString();
    std::string ddl = "CREATE TABLE usertable (ycsb_key INT PRIMARY KEY";
    for (int f = 0; f < cfg.fields; ++f) ddl += ", field" + std::to_string(f) + " STRING";
    VELOCE_CHECK(c.ExecuteSync(*conn, ddl + ")").ok());
    for (uint64_t k = 0; k < cfg.rows; k += 100) {
      auto ins = c.ExecuteSync(*conn, YcsbInsertSql(stream, k, 100));
      VELOCE_CHECK(ins.ok()) << ins.status().ToString();
    }
    VELOCE_CHECK(c.proxy()->Disconnect((*conn)->id).ok());
  });

  ShadowTable shadow;
  for (uint64_t k = 0; k < cfg.rows; ++k) shadow.Set(k, stream.initial[k]);
  uint64_t hot_updates = 0;
  OracleVerdict reads_oracle{"ycsb-b: every read returns the last value written", 0, 0};

  h.BeginWindow();
  Connection* conn = nullptr;
  for (uint64_t i = 0; i < stream.ops.size(); ++i) {
    const YcsbOp& op = stream.ops[i];
    if (i % kYcsbOpsPerConnection == 0) {
      if (conn != nullptr) (void)h.cluster().proxy()->Disconnect(conn->id);
      h.ArmWake(NowNs());
      auto c = ConnectOne(h, tenant, i);
      VELOCE_CHECK(c.ok()) << c.status().ToString();
      conn = *c;
    }
    const int64_t span = h.BeginOp(i);
    const int64_t t0 = NowNs();
    auto res = h.Exec(conn, op.sql, i, span, op.update ? &h.writes() : &h.reads());
    bool ok = res.ok();
    if (ok && op.update) {
      ok = res->rows_affected == 1;
      shadow.SetField(op.key, static_cast<size_t>(op.field), op.value);
      if (op.key == stream.hot.front()) ++hot_updates;
    } else if (ok) {
      std::vector<std::string> got;
      if (res->rows.size() == 1) {
        for (const auto& d : res->rows.front()) got.push_back(d.is_null() ? "" : d.string_value());
      }
      ++reads_oracle.checks;
      reads_oracle.violations += static_cast<uint64_t>(shadow.Check(op.key, got));
      if (opts.trace) (op.hot ? h.hot_read_kv() : h.cold_read_kv()).Add(h.last_kv_cpu());
    }
    h.EndOp(span, t0, ok);
    h.Pump(i);
  }
  h.EndWindow();
  r.oracles.push_back(reads_oracle);
  h.set_hot_key_versions(static_cast<double>(hot_updates));
  h.Finish(&r);
  WriteTrace(h, &r);
  return r;
}

// --- tpcc -------------------------------------------------------------------

namespace {

std::string I(int64_t v) { return std::to_string(v); }

/// Runs one TPC-C-lite transaction interactively: later statements use
/// the results of earlier ones. Statement latencies go to the read or
/// write class. Returns the commit status; `paid_cents` gets the Payment
/// amount only when the commit succeeded.
class TpccClient {
 public:
  TpccClient(SqlHarness* h, const TpccConfig& cfg) : h_(h), cfg_(cfg) {}

  Status Run(Connection* conn, const TpccTxn& t, uint64_t op, int64_t span,
             std::map<int, int64_t>* paid_cents, uint64_t* attempts) {
    Status last = Status::OK();
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      ++*attempts;
      conn_ = conn;
      op_ = op;
      span_ = span;
      read_only_ = TpccReadOnly(t.type);
      Status s = Exec("BEGIN", nullptr).status();
      if (s.ok()) s = Body(t);
      if (s.ok()) {
        s = Exec("COMMIT", read_only_ ? &h_->reads() : &h_->writes()).status();
        if (s.ok()) {
          if (t.type == TpccType::kPayment) (*paid_cents)[t.w] += t.amount_cents;
          return s;
        }
      } else {
        (void)Exec("ROLLBACK", nullptr);
      }
      last = s;
      if (!Retryable(s)) return s;
    }
    return last;
  }

 private:
  StatusOr<ResultSet> Exec(const std::string& sql, Samples* cls) {
    return h_->Exec(conn_, sql, op_, span_, cls, /*idempotent=*/false);
  }
  /// Point reads of the district rows every NewOrder and Payment updates
  /// are the hot reads; point reads of item and stock rows the cold ones.
  enum class Heat { kHot, kCold, kOther };
  StatusOr<ResultSet> Read(const std::string& sql, Heat heat = Heat::kOther) {
    auto r = Exec(sql, &h_->reads());
    if (h_->opts().trace && heat != Heat::kOther) {
      (heat == Heat::kHot ? h_->hot_read_kv() : h_->cold_read_kv()).Add(h_->last_kv_cpu());
    }
    return r;
  }
  StatusOr<ResultSet> Write(const std::string& sql) {
    return Exec(sql, &h_->writes());
  }

  Status Body(const TpccTxn& t) {
    const std::string wd = " WHERE w_id = " + I(t.w) + " AND d_id = " + I(t.d);
    switch (t.type) {
      case TpccType::kNewOrder: {
        auto rs = Read("SELECT d_next_o_id FROM district" + wd, Heat::kHot);
        if (!rs.ok()) return rs.status();
        if (rs->rows.size() != 1) return Status::Internal("district missing");
        const int64_t o_id = rs->rows[0][0].int_value();
        VELOCE_RETURN_IF_ERROR(
            Write("UPDATE district SET d_next_o_id = " + I(o_id + 1) + wd).status());
        VELOCE_RETURN_IF_ERROR(Write("INSERT INTO orders VALUES (" + I(t.w) + ", " + I(t.d) +
                                     ", " + I(o_id) + ", " + I(t.c) + ", " +
                                     I(static_cast<int64_t>(t.items.size())) + ", 0)")
                                   .status());
        for (size_t l = 0; l < t.items.size(); ++l) {
          const int item = t.items[l];
          auto price = Read("SELECT i_price FROM item WHERE i_id = " + I(item), Heat::kCold);
          if (!price.ok()) return price.status();
          if (price->rows.size() != 1) return Status::Internal("item missing");
          auto stock = Read("SELECT s_quantity FROM stock WHERE w_id = " + I(t.w) +
                                " AND i_id = " + I(item),
                            Heat::kCold);
          if (!stock.ok()) return stock.status();
          if (stock->rows.size() != 1) return Status::Internal("stock missing");
          int64_t qty = stock->rows[0][0].int_value();
          qty = qty > t.qty[l] + 10 ? qty - t.qty[l] : qty - t.qty[l] + 91;
          VELOCE_RETURN_IF_ERROR(Write("UPDATE stock SET s_quantity = " + I(qty) +
                                       ", s_ytd = s_ytd + " + I(t.qty[l]) + " WHERE w_id = " +
                                       I(t.w) + " AND i_id = " + I(item))
                                     .status());
          char amount[32];
          std::snprintf(amount, sizeof(amount), "%.2f",
                        price->rows[0][0].AsDouble() * t.qty[l]);
          VELOCE_RETURN_IF_ERROR(Write("INSERT INTO order_line VALUES (" + I(t.w) + ", " +
                                       I(t.d) + ", " + I(o_id) + ", " +
                                       I(static_cast<int64_t>(l) + 1) + ", " + I(item) +
                                       ", " + I(t.qty[l]) + ", " + amount + ")")
                                     .status());
        }
        return Status::OK();
      }
      case TpccType::kPayment: {
        const std::string amt = Cents(t.amount_cents);
        VELOCE_RETURN_IF_ERROR(Write("UPDATE warehouse SET w_ytd = w_ytd + " + amt +
                                     " WHERE w_id = " + I(t.w))
                                   .status());
        VELOCE_RETURN_IF_ERROR(
            Write("UPDATE district SET d_ytd = d_ytd + " + amt + wd).status());
        int64_t c_id = t.c;
        if (t.by_last_name) {
          auto rs = Read("SELECT c_id FROM customer WHERE c_last = '" +
                         TpccLastName(t.c % 1000) + "' ORDER BY c_id");
          if (!rs.ok()) return rs.status();
          if (!rs->rows.empty()) c_id = rs->rows[rs->rows.size() / 2][0].int_value();
        }
        return Write("UPDATE customer SET c_balance = c_balance - " + amt +
                     ", c_ytd_payment = c_ytd_payment + " + amt +
                     ", c_payment_cnt = c_payment_cnt + 1" + wd + " AND c_id = " + I(c_id))
            .status();
      }
      case TpccType::kOrderStatus: {
        VELOCE_RETURN_IF_ERROR(
            Read("SELECT c_balance FROM customer" + wd + " AND c_id = " + I(t.c)).status());
        auto rs = Read("SELECT o_id FROM orders" + wd + " AND o_c_id = " + I(t.c) +
                       " ORDER BY o_id DESC LIMIT 1");
        if (!rs.ok()) return rs.status();
        if (rs->rows.empty()) return Status::OK();
        return Read("SELECT ol_i_id, ol_quantity, ol_amount FROM order_line" + wd +
                    " AND o_id = " + I(rs->rows[0][0].int_value()))
            .status();
      }
      case TpccType::kDelivery: {
        for (int d = 1; d <= cfg_.districts; ++d) {
          const std::string dwd = " WHERE w_id = " + I(t.w) + " AND d_id = " + I(d);
          auto rs = Read("SELECT o_id FROM orders" + dwd +
                         " AND o_delivered = 0 ORDER BY o_id LIMIT 1");
          if (!rs.ok()) return rs.status();
          if (rs->rows.empty()) continue;
          VELOCE_RETURN_IF_ERROR(Write("UPDATE orders SET o_delivered = 1" + dwd +
                                       " AND o_id = " + I(rs->rows[0][0].int_value()))
                                     .status());
        }
        return Status::OK();
      }
      case TpccType::kStockLevel:
        return Read("SELECT COUNT(*) FROM stock WHERE w_id = " + I(t.w) +
                    " AND s_quantity < 15")
            .status();
    }
    return Status::Internal("unknown txn type");
  }

  SqlHarness* h_;
  const TpccConfig& cfg_;
  Connection* conn_ = nullptr;
  uint64_t op_ = 0;
  int64_t span_ = -1;
  bool read_only_ = false;
};

void LoadTpcc(ServerlessCluster& c, Connection* conn, const TpccConfig& cfg,
              const TpccStream& s) {
  const char* ddl[] = {
      "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name STRING, w_ytd DOUBLE)",
      "CREATE TABLE district (w_id INT, d_id INT, d_next_o_id INT, d_ytd DOUBLE, "
      "PRIMARY KEY (w_id, d_id))",
      "CREATE TABLE customer (w_id INT, d_id INT, c_id INT, c_last STRING, "
      "c_balance DOUBLE, c_ytd_payment DOUBLE, c_payment_cnt INT, "
      "PRIMARY KEY (w_id, d_id, c_id))",
      "CREATE INDEX customer_by_last ON customer (c_last)",
      "CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price DOUBLE)",
      "CREATE TABLE stock (w_id INT, i_id INT, s_quantity INT, s_ytd INT, "
      "PRIMARY KEY (w_id, i_id))",
      "CREATE TABLE orders (w_id INT, d_id INT, o_id INT, o_c_id INT, "
      "o_ol_cnt INT, o_delivered INT, PRIMARY KEY (w_id, d_id, o_id))",
      "CREATE TABLE order_line (w_id INT, d_id INT, o_id INT, ol_number INT, "
      "ol_i_id INT, ol_quantity INT, ol_amount DOUBLE, "
      "PRIMARY KEY (w_id, d_id, o_id, ol_number))",
  };
  auto exec = [&](const std::string& sql) {
    auto r = c.ExecuteSync(conn, sql);
    VELOCE_CHECK(r.ok()) << sql.substr(0, 80) << ": " << r.status().ToString();
  };
  for (const char* stmt : ddl) exec(stmt);
  for (int w = 1; w <= cfg.warehouses; ++w) {
    exec("INSERT INTO warehouse VALUES (" + I(w) + ", 'wh" + I(w) + "', 0.0)");
    for (int d = 1; d <= cfg.districts; ++d) {
      exec("INSERT INTO district VALUES (" + I(w) + ", " + I(d) + ", 1, 0.0)");
      std::string stmt = "INSERT INTO customer VALUES ";
      for (int cu = 1; cu <= cfg.customers; ++cu) {
        if (cu > 1) stmt += ", ";
        stmt += "(" + I(w) + ", " + I(d) + ", " + I(cu) + ", '" + TpccLastName(cu % 1000) +
                "', 0.0, 0.0, 0)";
      }
      exec(stmt);
    }
    for (int i = 1; i <= cfg.items; i += 50) {
      std::string stmt = "INSERT INTO stock VALUES ";
      for (int j = i; j < i + 50 && j <= cfg.items; ++j) {
        if (j > i) stmt += ", ";
        stmt += "(" + I(w) + ", " + I(j) + ", " +
                I(s.initial_stock[static_cast<size_t>((w - 1) * cfg.items + j - 1)]) + ", 0)";
      }
      exec(stmt);
    }
  }
  for (int i = 1; i <= cfg.items; i += 50) {
    std::string stmt = "INSERT INTO item VALUES ";
    for (int j = i; j < i + 50 && j <= cfg.items; ++j) {
      if (j > i) stmt += ", ";
      stmt += "(" + I(j) + ", 'item" + I(j) + "', " +
              I(s.item_price[static_cast<size_t>(j - 1)]) + ".5)";
    }
    exec(stmt);
  }
}

/// Reads the tpcc end state back for the oracle.
StatusOr<TpccEndState> ReadTpccEnd(ServerlessCluster& c, Connection* conn) {
  TpccEndState s;
  auto w = c.ExecuteSync(conn, "SELECT w_id, w_ytd FROM warehouse");
  if (!w.ok()) return w.status();
  for (const auto& row : w->rows) s.w_ytd[static_cast<int>(row[0].int_value())] = row[1].AsDouble();
  auto d = c.ExecuteSync(conn, "SELECT w_id, d_id, d_ytd, d_next_o_id FROM district");
  if (!d.ok()) return d.status();
  for (const auto& row : d->rows) {
    const std::pair<int, int> wd(static_cast<int>(row[0].int_value()),
                                 static_cast<int>(row[1].int_value()));
    s.d_ytd[wd] = row[2].AsDouble();
    s.d_next_o_id[wd] = row[3].int_value();
  }
  auto o = c.ExecuteSync(conn, "SELECT w_id, d_id, o_id FROM orders");
  if (!o.ok()) return o.status();
  for (const auto& row : o->rows) {
    int64_t& max_o = s.max_o_id[{static_cast<int>(row[0].int_value()),
                                 static_cast<int>(row[1].int_value())}];
    max_o = std::max(max_o, row[2].int_value());
  }
  return s;
}

}  // namespace

RunResult RunTpcc(const RunOptions& opts) {
  const TpccConfig cfg;
  const uint64_t num_txns = static_cast<uint64_t>(opts.seconds) * kTpccTxnsPerSecond;
  const TpccStream stream = MakeTpcc(cfg, opts.seed, num_txns);
  SqlHarness h(opts);
  RunResult r;
  veloce::kv::TenantId tenant = 0;
  h.Setup([&](ServerlessCluster& c) {
    auto t = h.CreateTenant(c, "tpcc");
    VELOCE_CHECK(t.ok()) << t.status().ToString();
    tenant = *t;
    auto conn = c.ConnectSync(tenant);
    VELOCE_CHECK(conn.ok()) << conn.status().ToString();
    LoadTpcc(c, *conn, cfg, stream);
    VELOCE_CHECK(c.proxy()->Disconnect((*conn)->id).ok());
  });

  TpccClient client(&h, cfg);
  std::map<int, int64_t> paid_cents;
  std::map<std::pair<int, int>, int> district_updates;
  uint64_t attempts = 0;
  h.BeginWindow();
  Connection* conn = nullptr;
  for (uint64_t i = 0; i < stream.txns.size(); ++i) {
    const TpccTxn& t = stream.txns[i];
    if (i % kTpccTxnsPerConnection == 0) {
      if (conn != nullptr) (void)h.cluster().proxy()->Disconnect(conn->id);
      h.ArmWake(NowNs());
      auto c = ConnectOne(h, tenant, i);
      VELOCE_CHECK(c.ok()) << c.status().ToString();
      conn = *c;
    }
    const int64_t span = h.BeginOp(i);
    const int64_t t0 = NowNs();
    const Status s = client.Run(conn, t, i, span, &paid_cents, &attempts);
    h.EndOp(span, t0, s.ok());
    if (s.ok() && (t.type == TpccType::kNewOrder || t.type == TpccType::kPayment)) {
      ++district_updates[{t.w, t.d}];
    }
    h.Pump(i);
  }
  h.EndWindow();
  h.add_attempts(attempts);

  TpccEndState end;
  auto state = ReadTpccEnd(h.cluster(), conn);
  OracleVerdict verdict{"tpcc: W_YTD = sum D_YTD = committed payments; D_NEXT_O_ID - 1 = max O_ID",
                        0, 0};
  if (state.ok()) {
    for (const auto& [w, cents] : paid_cents) state->paid[w] = static_cast<double>(cents) / 100.0;
    verdict.checks = state->w_ytd.size() + state->d_next_o_id.size();
    verdict.violations = static_cast<uint64_t>(CheckTpcc(*state));
  } else {
    verdict.violations = 1;
    r.notes.push_back("tpcc end state unreadable: " + state.status().ToString());
  }
  r.oracles.push_back(verdict);
  int hottest = 0;
  for (const auto& [wd, n] : district_updates) hottest = std::max(hottest, n);
  h.set_hot_key_versions(hottest);
  h.Finish(&r);
  WriteTrace(h, &r);
  return r;
}

// --- tenant-wake ------------------------------------------------------------

namespace {

/// Scales the tenant to zero: every SQL node serving it goes away.
void Suspend(ServerlessCluster& c, veloce::kv::TenantId tenant) {
  for (veloce::sql::SqlNode* node : c.pool()->NodesForTenant(tenant)) c.pool()->Remove(node);
}

uint64_t ShadowKey(int tenant, int key, const WakeConfig& cfg) {
  return static_cast<uint64_t>(tenant) * static_cast<uint64_t>(cfg.keys) +
         static_cast<uint64_t>(key);
}

}  // namespace

RunResult RunTenantWake(const RunOptions& opts) {
  const WakeConfig cfg;
  const uint64_t num_wakes = static_cast<uint64_t>(opts.seconds) * kWakesPerSecond;
  const WakeStream stream = MakeWake(cfg, opts.seed, num_wakes);
  SqlHarness h(opts);
  RunResult r;
  std::vector<veloce::kv::TenantId> tenants;
  h.Setup([&](ServerlessCluster& c) {
    tenants.clear();
    for (int t = 0; t < cfg.tenants; ++t) {
      auto id = h.CreateTenant(c, "sleeper-" + std::to_string(t));
      VELOCE_CHECK(id.ok()) << id.status().ToString();
      tenants.push_back(*id);
    }
    for (int t = 0; t < cfg.tenants; ++t) {
      auto conn = c.ConnectSync(tenants[static_cast<size_t>(t)]);
      VELOCE_CHECK(conn.ok()) << conn.status().ToString();
      VELOCE_CHECK(c.ExecuteSync(*conn, "CREATE TABLE kv (k INT PRIMARY KEY, v STRING)").ok());
      std::string ins = "INSERT INTO kv VALUES ";
      for (const WakeWrite& w : stream.initial[static_cast<size_t>(t)]) {
        if (w.key > 0) ins += ", ";
        ins += "(" + std::to_string(w.key) + ", '" + w.value + "')";
      }
      auto loaded = c.ExecuteSync(*conn, ins);
      VELOCE_CHECK(loaded.ok()) << loaded.status().ToString();
      VELOCE_CHECK(c.proxy()->Disconnect((*conn)->id).ok());
      Suspend(c, tenants[static_cast<size_t>(t)]);
    }
  });

  ShadowTable shadow;
  for (int t = 0; t < cfg.tenants; ++t) {
    for (const WakeWrite& w : stream.initial[static_cast<size_t>(t)]) {
      shadow.Set(ShadowKey(t, w.key, cfg), {w.value});
    }
  }
  // The rows the stream writes most stand in for hot keys. None takes many
  // versions here, so hot and cold reads should cost the same.
  std::map<uint64_t, int> writes_per_row;
  for (const auto& burst : stream.bursts) {
    for (const Wake& w : burst) {
      for (const WakeWrite& wr : w.writes) ++writes_per_row[ShadowKey(w.tenant, wr.key, cfg)];
    }
  }
  std::vector<std::pair<int, uint64_t>> ranked;
  for (const auto& [row, n] : writes_per_row) ranked.emplace_back(n, row);
  const size_t num_hot = std::min<size_t>(10, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<ptrdiff_t>(num_hot), ranked.end(),
                    std::greater<>());
  std::set<uint64_t> hot;
  for (size_t i = 0; i < num_hot; ++i) hot.insert(ranked[i].second);
  h.set_hot_key_versions(num_hot > 0 ? ranked.front().first : 0);

  OracleVerdict verdict{"tenant-wake: each tenant reads back what it wrote before its suspend",
                        0, 0};
  h.BeginWindow();
  uint64_t op = 0;
  for (const std::vector<Wake>& burst : stream.bursts) {
    std::vector<veloce::kv::TenantId> ids;
    for (const Wake& w : burst) ids.push_back(tenants[static_cast<size_t>(w.tenant)]);
    auto conns = h.ConnectAll(ids, op);
    std::vector<Connection*> open;
    for (size_t i = 0; i < burst.size(); ++i, ++op) {
      const Wake& w = burst[i];
      const int64_t span = h.BeginOp(op, conns[i].issued_ns);
      bool ok = conns[i].conn.ok();
      if (ok) {
        Connection* conn = *conns[i].conn;
        open.push_back(conn);
        h.ArmWake(conns[i].issued_ns);
        for (int key : w.reads) {
          auto rs = h.Exec(conn, "SELECT v FROM kv WHERE k = " + std::to_string(key), op, span,
                           &h.reads());
          if (!rs.ok()) {
            ok = false;
            continue;
          }
          std::vector<std::string> got;
          if (rs->rows.size() == 1 && !rs->rows[0][0].is_null()) {
            got.push_back(rs->rows[0][0].string_value());
          }
          const uint64_t row = ShadowKey(w.tenant, key, cfg);
          ++verdict.checks;
          verdict.violations += static_cast<uint64_t>(shadow.Check(row, got));
          if (opts.trace) (hot.count(row) > 0 ? h.hot_read_kv() : h.cold_read_kv()).Add(h.last_kv_cpu());
        }
        for (const WakeWrite& wr : w.writes) {
          auto rs = h.Exec(conn,
                           "UPDATE kv SET v = '" + wr.value + "' WHERE k = " +
                               std::to_string(wr.key),
                           op, span, &h.writes());
          ok = ok && rs.ok() && rs->rows_affected == 1;
          if (rs.ok()) shadow.Set(ShadowKey(w.tenant, wr.key, cfg), {wr.value});
        }
      }
      h.EndOp(span, conns[i].issued_ns, ok);
    }
    if (opts.trace) h.BilledRequestUnits();  // before the nodes go away
    for (Connection* conn : open) (void)h.cluster().proxy()->Disconnect(conn->id);
    for (veloce::kv::TenantId id : ids) Suspend(h.cluster(), id);
    h.Pump(op);
  }
  h.EndWindow();
  r.oracles.push_back(verdict);
  h.Finish(&r);
  WriteTrace(h, &r);
  return r;
}

// --- kv-contend -------------------------------------------------------------

namespace {

constexpr veloce::kv::TenantId kContendTenant = 10;

std::string CounterKey(uint64_t i) {
  return veloce::kv::AddTenantPrefix(kContendTenant, "ctr" + std::to_string(i));
}

/// One client thread's measurements.
struct ContendClient {
  explicit ContendClient(bool trace, int tid) : tracer(trace, kMaxSpans / 4, tid) {}
  Tracer tracer;
  Samples ops, gets, puts, commits;
  uint64_t committed = 0, attempts = 0, failed = 0;
  int64_t thread_cpu_ns = 0, wall_ns = 0;
};

/// Reads both counters, writes both plus one, commits; restarts the txn on
/// retryable errors. Returns true once committed.
bool IncrementPair(veloce::kv::KVCluster* cluster, uint64_t a, uint64_t b, uint64_t op,
                   int64_t op_span, ContendClient* cl) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ++cl->attempts;
    veloce::kv::Transaction txn(cluster, kContendTenant);
    Status s = Status::OK();
    int64_t vals[2] = {0, 0};
    const uint64_t keys[2] = {a, b};
    for (int k = 0; k < 2 && s.ok(); ++k) {
      std::optional<std::string> v;
      const int64_t t0 = NowNs();
      s = txn.Get(CounterKey(keys[k]), &v);
      const int64_t t1 = NowNs();
      cl->gets.Add(t1 - t0);
      cl->tracer.Add("get", op, t0, t1, op_span);
      if (s.ok() && v.has_value()) vals[k] = std::stoll(*v);
    }
    for (int k = 0; k < 2 && s.ok(); ++k) {
      const int64_t t0 = NowNs();
      s = txn.Put(CounterKey(keys[k]), std::to_string(vals[k] + 1));
      const int64_t t1 = NowNs();
      cl->puts.Add(t1 - t0);
      cl->tracer.Add("put", op, t0, t1, op_span);
    }
    if (s.ok()) {
      const int64_t t0 = NowNs();
      s = txn.Commit();
      const int64_t t1 = NowNs();
      cl->commits.Add(t1 - t0);
      cl->tracer.Add("commit", op, t0, t1, op_span);
      if (s.ok()) return true;
    }
    if (!txn.finalized()) (void)txn.Rollback();
    if (!Retryable(s)) return false;
    std::this_thread::yield();
  }
  return false;
}

}  // namespace

RunResult RunKvContend(const RunOptions& opts) {
  const ContendConfig cfg;
  const uint64_t per_thread = static_cast<uint64_t>(opts.seconds) * kContendTxnsPerSecond /
                              static_cast<uint64_t>(cfg.threads);
  const auto stream = MakeContend(cfg, opts.seed, per_thread);
  RunResult r;

  std::vector<double> setup_s;
  std::unique_ptr<Seams> seams;
  std::unique_ptr<veloce::kv::KVCluster> cluster;
  double setup_total_s = 0;
  for (int rep = 0; MoreSetups(rep, setup_total_s); ++rep) {
    cluster.reset();
    seams.reset();
    const int64_t t0 = NowNs();
    veloce::kv::KVClusterOptions copts;
    if (opts.trace) {
      seams = std::make_unique<Seams>();
      copts.engine_options.env = &seams->env;
      copts.transport = &seams->transport;
    }
    cluster = std::make_unique<veloce::kv::KVCluster>(copts);
    VELOCE_CHECK_OK(cluster->CreateTenantKeyspace(kContendTenant));
    for (uint64_t i = 0; i < cfg.counters; i += 100) {
      veloce::kv::Transaction txn(cluster.get(), kContendTenant);
      for (uint64_t k = i; k < std::min(cfg.counters, i + 100); ++k) {
        VELOCE_CHECK_OK(txn.Put(CounterKey(k), "0"));
      }
      VELOCE_CHECK_OK(txn.Commit());
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total_s += setup_s.back();
  }
  const size_t ranges = cluster->Ranges().size();

  std::vector<std::unique_ptr<ContendClient>> clients;
  for (int t = 0; t < cfg.threads; ++t) {
    clients.push_back(std::make_unique<ContendClient>(opts.trace, t + 1));
  }
  const Totals totals0 = opts.trace ? TakeTotals(cluster->metrics()) : Totals{};
  const EnvSnap env0 = TakeEnv(seams.get());
  const int64_t deliveries0 = seams ? seams->transport.deliveries() : 0;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t wall0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < cfg.threads; ++t) {
      threads.emplace_back([&, t] {
        ContendClient* cl = clients[static_cast<size_t>(t)].get();
        const auto& txns = stream[static_cast<size_t>(t)];
        const int64_t cpu_start = ThreadCpuNs();
        for (uint64_t i = 0; i < txns.size(); ++i) {
          const uint64_t op = static_cast<uint64_t>(t) * per_thread + i;
          const int64_t t0 = NowNs();
          const int64_t span = cl->tracer.Add("op", op, t0, 0);
          const bool ok = IncrementPair(cluster.get(), txns[i].first, txns[i].second, op, span,
                                        cl);
          const int64_t t1 = NowNs();
          cl->tracer.End(span);
          cl->ops.Add(t1 - t0);
          cl->wall_ns += t1 - t0;
          ok ? ++cl->committed : ++cl->failed;
        }
        cl->thread_cpu_ns = ThreadCpuNs() - cpu_start;
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const int64_t wall1 = NowNs();
  const int64_t cpu1 = ProcessCpuNs();
  const Totals totals1 = opts.trace ? TakeTotals(cluster->metrics()) : Totals{};
  const EnvSnap env1 = TakeEnv(seams.get());
  const int64_t deliveries1 = seams ? seams->transport.deliveries() : 0;

  Samples ops, gets, puts, commits;
  uint64_t committed = 0, attempts = 0, failed = 0;
  int64_t thread_cpu = 0, op_wall = 0;
  for (const auto& cl : clients) {
    ops.Merge(cl->ops);
    gets.Merge(cl->gets);
    puts.Merge(cl->puts);
    commits.Merge(cl->commits);
    committed += cl->committed;
    attempts += cl->attempts;
    failed += cl->failed;
    thread_cpu += cl->thread_cpu_ns;
    op_wall += cl->wall_ns;
  }

  std::vector<int64_t> counters;
  {
    veloce::kv::Transaction txn(cluster.get(), kContendTenant);
    for (uint64_t i = 0; i < cfg.counters; ++i) {
      std::optional<std::string> v;
      VELOCE_CHECK_OK(txn.Get(CounterKey(i), &v));
      counters.push_back(v.has_value() ? std::stoll(*v) : 0);
    }
    (void)txn.Commit();
  }
  const uint64_t lost = CheckCounters(counters, committed);
  r.oracles.push_back({"kv-contend: sum of counters = 2 x committed txns", 1, lost});
  r.notes.push_back("kv-contend: " + std::to_string(cfg.threads) + " threads, " +
                    std::to_string(cfg.counters) + " zipf(0.99) counters, default TxnOptions; " +
                    std::to_string(committed) + " committed, " + std::to_string(lost) +
                    " increments lost");

  r.attempted = ops.count();
  r.failed_ops = failed;
  const double n = static_cast<double>(std::max<size_t>(1, ops.count()));
  r.E2E("setup_s", Median(setup_s), "s");
  r.E2E("throughput_ops_s", Ratio(n, static_cast<double>(wall1 - wall0) / 1e9), "1/s");
  r.E2E("p50_ms", ops.QuantileMs(0.50), "ms");
  r.E2E("p99_ms", ops.QuantileMs(0.99), "ms");
  // The read class is Transaction::Get, the write class Transaction::Commit.
  r.E2E("read_p50_ms", gets.QuantileMs(0.50), "ms");
  r.E2E("read_p99_ms", gets.QuantileMs(0.99), "ms");
  r.E2E("write_p50_ms", commits.QuantileMs(0.50), "ms");
  r.E2E("write_p99_ms", commits.QuantileMs(0.99), "ms");
  r.E2E("cpu_us_per_op", static_cast<double>(cpu1 - cpu0) / 1e3 / n, "us");
  r.E2E("failed_ratio", static_cast<double>(failed + lost) / n, "ratio");
  r.E2E("peak_rss_mb", PeakRssMb(), "MB");
  r.notes.push_back("op samples: " + std::to_string(ops.count()) + ", commit samples: " +
                    std::to_string(commits.count()) + "; no wakes on this workload");

  if (opts.trace) {
    LayerInputs in;
    in.ops = n;
    in.t0 = &totals0;
    in.t1 = &totals1;
    in.kv_get = &gets;
    in.kv_put = &puts;
    in.kv_commit = &commits;
    in.op_wall_ns = op_wall;
    in.op_thread_cpu_ns = thread_cpu;
    in.kv_cpu_ns = thread_cpu;  // every call the client makes is a KV call
    in.env0 = env0;
    in.env1 = env1;
    in.deliveries = deliveries1 - deliveries0;
    in.attempts = attempts;
    in.ranges = ranges;
    std::vector<const Tracer*> tracers;
    for (const auto& cl : clients) {
      in.spans += cl->tracer.size();
      tracers.push_back(&cl->tracer);
    }
    EmitLayers(in, &r);
    const std::string path = opts.out_dir + "/trace-" + opts.workload + ".json";
    r.notes.push_back(WriteChromeTrace(path, tracers) ? "spans written to " + path
                                                      : "FAILED to write " + path);
  }
  return r;
}

}  // namespace perfbench
