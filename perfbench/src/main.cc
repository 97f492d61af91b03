// mural_perfbench: the repository's benchmark.
//
// Builds a Database for one workload through the public API, starts the
// shipped Server in-process on an AF_UNIX socket with murald's option
// values, and drives the workload from client connections in this
// process.  With --trace 0 it measures the end-to-end metrics; with
// --trace 1 it runs the workload three ways (over the wire, then
// in-process through the decomposed public calls without and with spans)
// and reports the per-layer metrics.  Every answer is checked by the
// workload's oracle.  See perfbench/README.md.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "distance/bounded_myers.h"
#include "phonetic/transformer.h"
#include "server/server.h"
#include "session/session.h"
#include "sql/sql.h"
#include "trace.h"
#include "wire.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Databases built per run after one untimed build (which pays for
/// first-touch page faults and cold caches); setup_s is their median.
constexpr int kSetupReps = 9;
/// The measured window is cut into this many equal parts, each driven by
/// fresh connections (so fresh sessions and session worker pools).
/// Throughput and the p50 latencies are the median over the parts, so one
/// unlucky part, from outside load or from where the scheduler placed the
/// threads, does not move the result.
constexpr int kParts = 5;
/// Untimed warm-up before the measured window (trace 0).
constexpr double kWarmupSeconds = 2.0;
/// Seed that stays unused while tuning, for confirming later claims.
constexpr uint64_t kHoldoutSeed = 9001;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "none";
  std::string source_digest = "none";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (flag == "--trace") a->trace = std::atoi(v.c_str());
    else if (flag == "--out-dir") a->out_dir = v;
    else if (flag == "--commit") a->commit = v;
    else if (flag == "--source-digest") a->source_digest = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Linear-interpolated quantile of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // Spread of the samples behind the value (n = 0: a single measurement).
  double median = 0, p95 = 0;
  size_t n = 0;
  std::string note;
};

/// Moves the calling thread to the `k`-th CPU it may run on (cycling),
/// then lets it run anywhere again.  Set-up is single-threaded and stays
/// on the CPU it starts on, and on a shared VM one vCPU can run 30-40%
/// slower than the others; starting each build on the next CPU keeps one
/// slow vCPU from setting the median.  Threads the build creates inherit
/// the full mask.
void StartOnCpu(int k) {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  const int n = CPU_COUNT(&all);
  if (n < 2) return;
  int target = k % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all) || target-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(all), &all);
    }
    return;
  }
}

Metric FromSamples(std::string name, const std::vector<double>& s,
                   double q, std::string unit) {
  Metric m;
  m.name = std::move(name);
  m.value = Quantile(s, q);
  m.unit = std::move(unit);
  m.median = Quantile(s, 0.5);
  m.p95 = Quantile(s, 0.95);
  m.n = s.size();
  return m;
}

Metric Single(std::string name, double value, std::string unit,
              std::string note = "") {
  Metric m;
  m.name = std::move(name);
  m.value = value;
  m.unit = std::move(unit);
  m.median = m.p95 = value;
  m.note = std::move(note);
  return m;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --------------------------------------------------------------------------
// Registry counters the per-layer metrics difference.

const char* const kCounters[] = {
    "storage.buffer_pool.hits",        "storage.buffer_pool.misses",
    "storage.buffer_pool.fetch_nanos", "storage.buffer_pool.evictions",
    "storage.buffer_pool.dirty_writebacks",
    "index.btree.probes",              "index.mtree.probes",
    "exec.morsels_run",                "exec.thread_pool.tasks_run",
    "phonetic.phoneme_cache.hits",     "phonetic.phoneme_cache.misses",
    "taxonomy.closure_cache.hits",     "taxonomy.closure_cache.misses",
    "engine.plan_cache.hits",          "engine.plan_cache.misses"};

std::map<std::string, double> Snapshot() {
  std::map<std::string, double> out;
  for (const char* name : kCounters) {
    out[name] = static_cast<double>(
        mural::MetricsRegistry::Global().GetCounter(name)->value());
  }
  return out;
}

std::map<std::string, double> Delta(const std::map<std::string, double>& a,
                                    const std::map<std::string, double>& b) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : b) out[k] = v - a.at(k);
  return out;
}

// --------------------------------------------------------------------------
// Clients.

struct ClientLog {
  std::vector<Outcome> outcomes;
  std::vector<double> lag_ms;  // open loop: actual send - scheduled send
  std::string fatal;
};

/// When the next statement is due: closed loop = now; open loop = on the
/// writer's fixed schedule from `start`.
struct Pacer {
  bool open_loop;
  double rate;
  Clock::time_point start;
  size_t k = 0;
  Clock::time_point Due() const {
    if (!open_loop) return Clock::now();
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(k / rate));
  }
};

Outcome Begin(const Stmt& s, Clock::time_point sent, int part) {
  Outcome o;
  o.kind = s.kind;
  o.key = s.key;
  o.sent = sent;
  o.part = part;
  return o;
}

void RunWireClient(const std::string& socket, StmtSource* src, Pacer pacer,
                   int part, Clock::time_point end, ClientLog* log) {
  std::string error;
  std::unique_ptr<WireClient> client = WireClient::Connect(socket, &error);
  if (client == nullptr) {
    log->fatal = error;
    return;
  }
  Reply reply;
  for (const std::string& line : src->Prelude()) {
    if (!client->RoundTrip(line, &reply) || !reply.ok) {
      log->fatal = "prelude failed: " + line + " " + reply.error;
      return;
    }
  }
  Stmt s;
  while (true) {
    const Clock::time_point due = pacer.Due();
    if (due >= end || !src->Next(&s)) break;
    if (pacer.open_loop) {
      std::this_thread::sleep_until(due);
      log->lag_ms.push_back(Ms(Clock::now() - due));
    }
    Outcome o = Begin(s, due, part);
    const bool alive = client->RoundTrip(s.sql, &reply);
    o.received = Clock::now();
    ++pacer.k;
    if (!alive) {
      o.error = "connection lost";
      log->outcomes.push_back(std::move(o));
      break;
    }
    o.ok = reply.ok;
    o.error = reply.error;
    o.values = std::move(reply.first_col);
    std::sort(o.values.begin(), o.values.end());
    o.runtime_ms = reply.runtime_ms;
    o.queue_wait_ms = reply.queue_wait_ms;
    log->outcomes.push_back(std::move(o));
  }
}

/// Work the in-process replay records per statement, for the per-layer
/// metrics.
struct LayerCounts {
  double psi = 0, psi_parallel = 0, base_rows = 0;
  double predicate_evals = 0, transforms = 0, distance_calls = 0;
  double distance_cells = 0, distance_word_ops = 0;
  double closures = 0;
  double user_bytes = 0;  // inserted id + text bytes
  std::map<std::string, std::vector<double>> span_us;  // by span name
  std::vector<double> query_self_us;

  void Add(const LayerCounts& o) {
    psi += o.psi;
    psi_parallel += o.psi_parallel;
    base_rows += o.base_rows;
    predicate_evals += o.predicate_evals;
    transforms += o.transforms;
    distance_calls += o.distance_calls;
    distance_cells += o.distance_cells;
    distance_word_ops += o.distance_word_ops;
    closures += o.closures;
    user_bytes += o.user_bytes;
    for (const auto& [k, v] : o.span_us) {
      span_us[k].insert(span_us[k].end(), v.begin(), v.end());
    }
    query_self_us.insert(query_self_us.end(), o.query_self_us.begin(),
                         o.query_self_us.end());
  }
};

bool IsParallelPlan(const std::string& explain) {
  if (explain.find("ParallelLexScan") != std::string::npos) return true;
  const size_t at = explain.find("dop=");
  return at != std::string::npos && std::atoi(explain.c_str() + at + 4) > 1;
}

/// Runs one statement through the decomposed public calls:
/// sql::Parse -> sql::Bind -> Session::PlanQuery -> Session::Query (or
/// Database::Insert / Database::Analyze for writes).
void RunDecomposed(mural::Database* db, mural::Session* session,
                   const Stmt& s, SpanRecorder* rec, int32_t root,
                   Outcome* o, LayerCounts* c) {
  const bool traced = rec->enabled();
  auto timed = [&](const char* name, auto&& fn) {
    const int32_t id = rec->Open(name, root);
    fn();
    rec->Close(id);
    if (traced) {
      c->span_us[name].push_back(
          static_cast<double>(rec->EndOf(id) - rec->StartOf(id)) * 1e-3);
    }
    return id;
  };
  const std::string& text = s.body.empty() ? s.sql : s.body;
  mural::StatusOr<mural::sql::Statement> parsed =
      mural::Status::Internal("unparsed");
  timed("sql.parse", [&] { parsed = mural::sql::Parse(text); });
  if (!parsed.ok()) {
    o->error = parsed.status().ToString();
    return;
  }
  switch (parsed->kind) {
    case mural::sql::StatementKind::kSelect: {
      mural::StatusOr<mural::LogicalPtr> plan =
          mural::Status::Internal("unbound");
      timed("sql.bind",
            [&] { plan = mural::sql::Bind(*parsed, db->catalog()); });
      if (!plan.ok()) {
        o->error = plan.status().ToString();
        return;
      }
      mural::StatusOr<mural::PhysicalPlan> physical =
          mural::Status::Internal("unplanned");
      const int32_t plan_span = timed(
          "optimizer.plan", [&] { physical = session->PlanQuery(*plan); });
      if (!physical.ok()) {
        o->error = physical.status().ToString();
        return;
      }
      mural::StatusOr<mural::QueryResult> result =
          mural::Status::Internal("unrun");
      const int32_t q =
          timed("engine.query", [&] { result = session->Query(*plan); });
      if (!result.ok()) {
        o->error = result.status().ToString();
        return;
      }
      o->ok = true;
      for (const mural::Row& row : result->rows) {
        o->values.push_back(row[0].type() == mural::TypeId::kInt64
                                ? row[0].int64()
                                : row[0].int32());
      }
      std::sort(o->values.begin(), o->values.end());
      o->runtime_ms = result->runtime_ms;
      o->queue_wait_ms = result->queue_wait_ms;
      const mural::ExecStats& st = result->exec_stats;
      c->base_rows += static_cast<double>(s.base_rows);
      c->predicate_evals += static_cast<double>(st.predicate_evals);
      c->transforms += static_cast<double>(st.phoneme_transforms);
      c->distance_calls += static_cast<double>(st.distance.calls);
      c->distance_cells += static_cast<double>(st.distance.cells);
      c->distance_word_ops += static_cast<double>(st.distance.word_ops);
      c->closures += static_cast<double>(st.closure_computations);
      if (s.kind == Kind::kPsiScan || s.kind == Kind::kPsiJoin) {
        c->psi += 1;
        if (IsParallelPlan(result->explain)) c->psi_parallel += 1;
      }
      if (traced) {
        // Session::Query re-plans; its admission wait and execution (as
        // the engine timed them) and the re-plan are its children.  The
        // re-plan is estimated by this statement's PlanQuery span, capped
        // at the part of the Query span the engine's own times leave.
        const int64_t start = rec->StartOf(q);
        const int64_t wait_ns =
            static_cast<int64_t>(result->queue_wait_ms * 1e6);
        const int64_t run_ns = static_cast<int64_t>(result->runtime_ms * 1e6);
        const int64_t plan_ns = std::clamp<int64_t>(
            rec->EndOf(plan_span) - rec->StartOf(plan_span), 0,
            std::max<int64_t>(0, rec->EndOf(q) - start - wait_ns - run_ns));
        rec->Add("engine.admission", q, start, start + wait_ns);
        rec->Add("optimizer.replan", q, start + wait_ns,
                 start + wait_ns + plan_ns);
        rec->Add("exec", q, start + wait_ns + plan_ns,
                 start + wait_ns + plan_ns + run_ns);
        const double self_ns =
            static_cast<double>(rec->EndOf(q) - start - wait_ns - plan_ns -
                                run_ns);
        c->query_self_us.push_back(self_ns * 1e-3);
      }
      return;
    }
    case mural::sql::StatementKind::kInsert: {
      mural::Status st;
      timed("engine.insert", [&] {
        for (mural::Row& row : parsed->insert_rows) {
          c->user_bytes +=
              4 + static_cast<double>(row[1].unitext().text().size());
          st = db->Insert(parsed->table_name, std::move(row));
          if (!st.ok()) break;
        }
      });
      o->ok = st.ok();
      if (!st.ok()) o->error = st.ToString();
      o->values = {static_cast<int64_t>(parsed->insert_rows.size())};
      return;
    }
    case mural::sql::StatementKind::kAnalyze: {
      mural::Status st;
      timed("engine.analyze", [&] { st = db->Analyze(parsed->table_name); });
      o->ok = st.ok();
      if (!st.ok()) o->error = st.ToString();
      return;
    }
    default:
      o->error = "statement kind not replayed in-process: " + text;
  }
}

void RunLocalClient(mural::Database* db, StmtSource* src, Pacer pacer,
                    Clock::time_point end, SpanRecorder* rec,
                    uint64_t client, ClientLog* log, LayerCounts* counts) {
  auto connected = db->Connect(db->session_defaults());
  if (!connected.ok()) {
    log->fatal = connected.status().ToString();
    return;
  }
  std::unique_ptr<mural::Session> session = std::move(*connected);
  for (const std::string& line : src->Prelude()) {
    auto r = session->Sql(line);
    if (!r.ok()) {
      log->fatal = "prelude failed: " + line + " " + r.status().ToString();
      return;
    }
  }
  Stmt s;
  uint64_t seq = 0;
  while (true) {
    const Clock::time_point due = pacer.Due();
    if (due >= end || !src->Next(&s)) break;
    if (pacer.open_loop) {
      std::this_thread::sleep_until(due);
      log->lag_ms.push_back(Ms(Clock::now() - due));
    }
    Outcome o = Begin(s, due, 0);
    rec->BeginStatement((client << 40) | seq++);
    const int32_t root = rec->Open("statement", -1);
    RunDecomposed(db, session.get(), s, rec, root, &o, counts);
    rec->Close(root);
    o.received = Clock::now();
    ++pacer.k;
    log->outcomes.push_back(std::move(o));
  }
}

/// Runs every client of `w` for [start, end) and returns their logs.
template <typename Fn>
std::vector<ClientLog> RunClients(Workload* w,
                                  std::vector<std::unique_ptr<StmtSource>>& srcs,
                                  Clock::time_point start, Fn&& body) {
  std::vector<ClientLog> logs(srcs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < srcs.size(); ++i) {
    const bool writer = static_cast<int>(i) == w->closed_clients();
    Pacer pacer{writer, w->writer_rate(), start};
    threads.emplace_back([&, i, pacer] { body(i, pacer, &logs[i]); });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

struct PhaseResult {
  std::vector<Outcome> outcomes;
  std::vector<double> lag_ms;
  double seconds = 0;
  std::string fatal;
};

void Append(std::vector<ClientLog> logs, PhaseResult* r) {
  for (ClientLog& l : logs) {
    if (!l.fatal.empty() && r->fatal.empty()) r->fatal = l.fatal;
    for (Outcome& o : l.outcomes) r->outcomes.push_back(std::move(o));
    r->lag_ms.insert(r->lag_ms.end(), l.lag_ms.begin(), l.lag_ms.end());
  }
}

size_t WindowCompleted(const PhaseResult& p) {
  size_t n = 0;
  for (const Outcome& o : p.outcomes) n += o.part >= 0 && o.ok && !o.wrong;
  return n;
}

// --------------------------------------------------------------------------
// Output.

void PrintMetric(const Metric& m) {
  std::printf("  %-40s %14.6g %-7s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.n > 0) {
    std::printf(" median=%.6g p95=%.6g n=%zu", m.median, m.p95, m.n);
  }
  if (!m.note.empty()) std::printf(" (%s)", m.note.c_str());
  std::printf("\n");
}

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[512];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::string JsonDetailed(const std::vector<Metric>& ms) {
  std::string out = "[";
  char buf[768];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"value\": %.17g, \"unit\": "
                  "\"%s\", \"median\": %.17g, \"p95\": %.17g, \"n\": %zu}",
                  i == 0 ? "" : ",", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str(), ms[i].median, ms[i].p95, ms[i].n);
    out += buf;
  }
  return out + "\n]";
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The end-to-end metrics BENCHMARK.json gates, in its order.
const char* const kGated[] = {"setup_s", "peak_rss_mb", "throughput_qps",
                              "psi_scan_p50_ms", "psi_scan_p95_ms"};

std::vector<Metric> EndToEnd(const PhaseResult& p,
                             const std::vector<double>& setup_s,
                             double peak_rss_mb) {
  std::vector<Metric> out;
  out.push_back(FromSamples("setup_s", setup_s, 0.5, "s"));
  out.push_back(Single("peak_rss_mb", peak_rss_mb, "MiB",
                       "read after set-up and warm-up"));
  std::vector<double> per_part(kParts, 0);
  for (const Outcome& o : p.outcomes) {
    if (o.part >= 0 && o.ok && !o.wrong) per_part[o.part] += 1;
  }
  for (double& n : per_part) n /= p.seconds / kParts;
  Metric tput = FromSamples("throughput_qps", per_part, 0.5, "stmt/s");
  tput.note = std::to_string(WindowCompleted(p)) + " statements in " +
              std::to_string(static_cast<int>(p.seconds)) + " s";
  out.push_back(tput);
  size_t attempted = 0, failed = 0;
  for (const Outcome& o : p.outcomes) {
    ++attempted;
    failed += !o.ok || o.wrong;
  }
  out.push_back(Single("failed_ratio", Ratio(failed, attempted), "ratio",
                       std::to_string(failed) + " of " +
                           std::to_string(attempted)));
  for (int k = 0; k < kNumKinds; ++k) {
    if (static_cast<Kind>(k) == Kind::kAnalyze) continue;
    std::vector<double> lat;
    for (const Outcome& o : p.outcomes) {
      if (o.part >= 0 && o.ok && static_cast<int>(o.kind) == k) {
        lat.push_back(Ms(o.received - o.sent));
      }
    }
    if (lat.empty()) continue;
    std::vector<std::vector<double>> parts(kParts);
    for (const Outcome& o : p.outcomes) {
      if (o.part >= 0 && o.ok && static_cast<int>(o.kind) == k) {
        parts[o.part].push_back(Ms(o.received - o.sent));
      }
    }
    std::vector<double> part_p50;
    for (const auto& v : parts) {
      if (!v.empty()) part_p50.push_back(Quantile(v, 0.5));
    }
    const std::string kind = KindName(static_cast<Kind>(k));
    Metric p50 = FromSamples(kind + "_p50_ms", lat, 0.5, "ms");
    p50.value = Quantile(part_p50, 0.5);
    p50.note = "part medians:";
    for (const double v : part_p50) {
      p50.note += " " + std::to_string(v).substr(0, 6);
    }
    out.push_back(p50);
    out.push_back(FromSamples(kind + "_p95_ms", lat, 0.95, "ms"));
  }
  if (!p.lag_ms.empty()) {
    out.push_back(FromSamples("writer_lag_p95_ms", p.lag_ms, 0.95, "ms"));
    out.push_back(Single("writer_lag_max_ms",
                         *std::max_element(p.lag_ms.begin(), p.lag_ms.end()),
                         "ms"));
  }
  return out;
}

/// Per-layer metrics from the wire phase (server, plan cache, admission),
/// the traced in-process phase (spans, counters) and the setup.
std::vector<Metric> PerLayer(Workload* w, const PhaseResult& wire,
                             const std::map<std::string, double>& wire_delta,
                             const PhaseResult& plain,
                             const PhaseResult& traced,
                             const LayerCounts& c,
                             const std::map<std::string, double>& d,
                             const SelfTimeReport& self,
                             const std::vector<SetupTimes>& setups) {
  std::vector<Metric> out;
  std::vector<double> overhead, waits;
  for (const Outcome& o : wire.outcomes) {
    if (o.part < 0 || !o.ok) continue;
    overhead.push_back(Ms(o.received - o.sent) - o.runtime_ms -
                       o.queue_wait_ms);
    waits.push_back(o.queue_wait_ms);
  }
  out.push_back(FromSamples("server.overhead_p50_ms", overhead, 0.5, "ms"));

  auto span_median = [&](const char* span, const char* name) {
    auto it = c.span_us.find(span);
    static const std::vector<double> kEmpty;
    out.push_back(FromSamples(name, it == c.span_us.end() ? kEmpty : it->second,
                              0.5, "us"));
  };
  span_median("sql.parse", "sql.parse_us");
  span_median("sql.bind", "sql.bind_us");
  span_median("optimizer.plan", "optimizer.plan_us");
  Metric par = Single("optimizer.parallel_plan_ratio",
                      Ratio(c.psi_parallel, c.psi), "ratio");
  par.note = "base " + std::to_string(static_cast<long>(c.psi)) +
             " Psi statements";
  out.push_back(par);

  const double lookups = wire_delta.at("engine.plan_cache.hits") +
                         wire_delta.at("engine.plan_cache.misses");
  Metric hit = Single("engine.plan_cache.hit_ratio",
                      Ratio(wire_delta.at("engine.plan_cache.hits"), lookups),
                      "ratio");
  hit.note = "base " + std::to_string(static_cast<long>(lookups)) +
             " lookups over the wire";
  out.push_back(hit);
  out.push_back(Single("engine.plan_cache.lookups", lookups, "count"));
  out.push_back(FromSamples("engine.admission.queue_wait_p95_ms", waits,
                            0.95, "ms"));
  out.push_back(FromSamples("engine.query_self_us", c.query_self_us, 0.5,
                            "us"));
  span_median("engine.insert", "engine.insert_us");

  for (Kind k : {Kind::kPsiScan, Kind::kPsiJoin, Kind::kOmega, Kind::kPoint}) {
    std::vector<double> run;
    for (const Outcome& o : traced.outcomes) {
      if (o.ok && o.kind == k) run.push_back(o.runtime_ms);
    }
    out.push_back(FromSamples(std::string("exec.run_ms.") + KindName(k), run,
                              0.5, "ms"));
  }
  const double stmts = static_cast<double>(traced.outcomes.size());
  out.push_back(Single("exec.predicate_evals_per_row",
                       Ratio(c.predicate_evals, c.base_rows), "ratio"));
  out.push_back(Single("exec.morsels_per_stmt",
                       Ratio(d.at("exec.morsels_run"), stmts), "count"));
  out.push_back(Single("exec.thread_pool.tasks_per_stmt",
                       Ratio(d.at("exec.thread_pool.tasks_run"), stmts),
                       "count"));

  out.push_back(Single("distance.calls_per_stmt",
                       Ratio(c.distance_calls, stmts), "count"));
  out.push_back(Single("distance.cells_per_call",
                       Ratio(c.distance_cells, c.distance_calls), "count"));
  out.push_back(Single("distance.word_ops_per_call",
                       Ratio(c.distance_word_ops, c.distance_calls),
                       "count"));

  // Kernel and G2P timings over the workload's own inputs.
  {
    const auto pairs = w->KernelPairs();
    std::vector<double> ns_per_call;
    mural::DistanceStats st;
    size_t begin = 0;
    int sink = 0;
    while (begin < pairs.size()) {
      size_t end = begin;
      while (end < pairs.size() && pairs[end].first == pairs[begin].first) {
        ++end;
      }
      mural::BoundedMyersMatcher matcher(pairs[begin].first, w->threshold());
      const Clock::time_point t0 = Clock::now();
      for (size_t i = begin; i < end; ++i) {
        sink += matcher.Distance(pairs[i].second, &st);
      }
      ns_per_call.push_back(Ms(Clock::now() - t0) * 1e6 /
                            static_cast<double>(end - begin));
      begin = end;
    }
    Metric m = FromSamples("distance.kernel_ns_per_call", ns_per_call, 0.5,
                           "ns");
    m.note = std::to_string(pairs.size()) + " pairs, checksum " +
             std::to_string(sink);
    out.push_back(m);

    const auto inputs = w->G2pInputs();
    std::vector<double> us;
    size_t bytes = 0;
    for (int rep = 0; rep < 4; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (const mural::UniText& u : inputs) {
        bytes += mural::PhoneticTransformer::Default()
                     .Transform(u.text(), u.lang())
                     .size();
      }
      us.push_back(Ms(Clock::now() - t0) * 1e3 /
                   static_cast<double>(inputs.size()));
    }
    Metric g = FromSamples("phonetic.g2p_us_per_call", us, 0.5, "us");
    g.note = std::to_string(inputs.size()) + " strings x 4, " +
             std::to_string(bytes) + " phoneme bytes";
    out.push_back(g);
  }
  const double g2p_lookups = d.at("phonetic.phoneme_cache.hits") +
                             d.at("phonetic.phoneme_cache.misses");
  Metric pc = Single("phonetic.phoneme_cache.hit_ratio",
                     Ratio(d.at("phonetic.phoneme_cache.hits"), g2p_lookups),
                     "ratio");
  pc.note = "base " + std::to_string(static_cast<long>(g2p_lookups));
  out.push_back(pc);
  out.push_back(Single("phonetic.transforms_per_stmt",
                       Ratio(c.transforms, stmts), "count"));

  const double fetches = d.at("storage.buffer_pool.hits") +
                         d.at("storage.buffer_pool.misses");
  out.push_back(Single("storage.fetches_per_stmt", Ratio(fetches, stmts),
                       "count"));
  out.push_back(Single("storage.fetches_per_row_scanned",
                       Ratio(fetches, c.base_rows), "ratio",
                       "base " + std::to_string(static_cast<long>(
                                     c.base_rows)) +
                           " rows in FROM tables"));
  out.push_back(Single("storage.fetch_ms_per_stmt",
                       Ratio(d.at("storage.buffer_pool.fetch_nanos") * 1e-6,
                             stmts),
                       "ms"));
  out.push_back(Single("storage.miss_ratio",
                       Ratio(d.at("storage.buffer_pool.misses"), fetches),
                       "ratio"));
  out.push_back(Single("storage.evictions_per_stmt",
                       Ratio(d.at("storage.buffer_pool.evictions"), stmts),
                       "count"));
  out.push_back(Single(
      "storage.write_amplification",
      Ratio(d.at("storage.buffer_pool.dirty_writebacks") * 8192,
            c.user_bytes),
      "ratio",
      "base " + std::to_string(static_cast<long>(c.user_bytes)) +
          " user bytes inserted"));

  out.push_back(Single("index.btree.probes_per_stmt",
                       Ratio(d.at("index.btree.probes"), stmts), "count"));
  out.push_back(Single("index.mtree.probes_per_stmt",
                       Ratio(d.at("index.mtree.probes"), stmts), "count"));
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return v;
  };
  out.push_back(FromSamples("index.mtree.build_s",
                            setup_median(&SetupTimes::mtree_build_s), 0.5,
                            "s"));

  const double closure_lookups = d.at("taxonomy.closure_cache.hits") +
                                 d.at("taxonomy.closure_cache.misses");
  Metric cc = Single("taxonomy.closure_cache.hit_ratio",
                     Ratio(d.at("taxonomy.closure_cache.hits"),
                           closure_lookups),
                     "ratio");
  cc.note = "base " + std::to_string(static_cast<long>(closure_lookups));
  out.push_back(cc);
  out.push_back(Single("taxonomy.closures_per_stmt",
                       Ratio(c.closures, stmts), "count"));

  out.push_back(FromSamples("setup.load_s",
                            setup_median(&SetupTimes::load_s), 0.5, "s"));
  out.push_back(FromSamples("setup.index_s",
                            setup_median(&SetupTimes::index_s), 0.5, "s"));
  out.push_back(FromSamples("setup.analyze_s",
                            setup_median(&SetupTimes::analyze_s), 0.5, "s"));
  out.push_back(FromSamples("setup.taxonomy_s",
                            setup_median(&SetupTimes::taxonomy_s), 0.5, "s"));

  for (const char* layer :
       {"statement", "sql.parse", "sql.bind", "optimizer.plan",
        "engine.query", "engine.admission", "optimizer.replan", "exec",
        "engine.insert", "engine.analyze"}) {
    auto it = self.self_ms.find(layer);
    out.push_back(Single(
        std::string("trace.") + layer + ".self_ms_per_stmt",
        Ratio(it == self.self_ms.end() ? 0 : it->second,
              static_cast<double>(self.statements)),
        "ms"));
  }
  const double plain_qps =
      static_cast<double>(plain.outcomes.size()) / plain.seconds;
  const double traced_qps =
      static_cast<double>(traced.outcomes.size()) / traced.seconds;
  Metric ov = Single("trace.overhead_ratio", Ratio(traced_qps, plain_qps),
                     "ratio");
  ov.note = "traced " + std::to_string(traced_qps).substr(0, 8) +
            " / untraced " + std::to_string(plain_qps).substr(0, 8) +
            " stmt/s, both in-process";
  out.push_back(ov);
  Metric viol = Single("trace.self_sum_violations",
                       static_cast<double>(self.violations), "count");
  viol.note = "of " + std::to_string(self.statements) +
              " statements, a child span outside its parent";
  out.push_back(viol);
  Metric un = Single("trace.unattributed_ratio",
                     Ratio(self.unattributed_ms, self.wall_ms), "ratio");
  un.note = "root self time / statement wall time; the check allows " +
            std::to_string(kUnattributedTolerance).substr(0, 4);
  out.push_back(un);
  return out;
}

int Main(const Args& args) {
  const std::string socket =
      args.out_dir + "/mural-" + std::to_string(::getpid()) + ".sock";
  const double max_seconds = args.seconds + kWarmupSeconds + 5;
  std::unique_ptr<Workload> w =
      MakeWorkload(args.workload, args.seed, args.out_dir, max_seconds);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);
  std::printf("  nproc=%u build=%s commit=%s sources=%s holdout_seed=%" PRIu64
              "\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              args.commit.c_str(), args.source_digest.c_str(), kHoldoutSeed);

  // Set-up, repeated: Database::Open through the server listening.  Each
  // build replaces the database and server of the previous one; build 0
  // is untimed.
  std::unique_ptr<mural::Database> db;
  std::unique_ptr<mural::Server> server;
  std::vector<double> setup_s;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep <= kSetupReps; ++rep) {
    StartOnCpu(rep);
    server.reset();
    db.reset();
    SetupTimes t;
    auto built = w->Build(&t);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    db = std::move(*built);
    mural::ServerOptions options;
    options.unix_path = socket;
    options.session_defaults = db->session_defaults();
    auto started = mural::Server::Start(db.get(), options);
    if (!started.ok()) {
      std::fprintf(stderr, "server failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(*started);
    if (rep == 0) continue;
    setup_s.push_back(Ms(Clock::now() - t.open_at) / 1000);
    setups.push_back(t);
  }
  std::printf("data:\n");
  for (const std::string& line : w->Describe(db.get())) {
    std::printf("  %s\n", line.c_str());
  }

  std::vector<std::unique_ptr<StmtSource>> srcs;
  const int n_clients = w->closed_clients() + (w->writer_rate() > 0 ? 1 : 0);
  for (int i = 0; i < n_clients; ++i) srcs.push_back(w->Source(i));

  // Untimed warm-up, then `parts` equal parts of `seconds`, each with
  // fresh connections.  Peak RSS is read after the warm-up, before the
  // measured window adds the benchmark's per-statement records.
  double peak_rss_mb = 0;
  auto wire_phase = [&](double warmup, double seconds, int parts) {
    PhaseResult r;
    r.seconds = seconds;
    for (int part = warmup > 0 ? -1 : 0; part < parts; ++part) {
      const Clock::time_point start = Clock::now();
      const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       part < 0 ? warmup : seconds / parts));
      Append(RunClients(w.get(), srcs, start,
                        [&](size_t i, Pacer pacer, ClientLog* log) {
                          RunWireClient(socket, srcs[i].get(), pacer, part,
                                        end, log);
                        }),
             &r);
      if (part < 0) peak_rss_mb = PeakRssMiB();
    }
    return r;
  };

  std::vector<Metric> metrics;
  std::vector<PhaseResult> phases;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  bool trace_ok = true;
  if (args.trace == 0) {
    phases.push_back(wire_phase(kWarmupSeconds, args.seconds, kParts));
  } else {
    // A third of the time each: over the wire (server, plan cache,
    // admission), in-process untraced, in-process traced.
    const double part = std::max(1.0, args.seconds / 3.0);
    const auto before_wire = Snapshot();
    phases.push_back(wire_phase(0.5, part, 1));
    const auto wire_delta = Delta(before_wire, Snapshot());

    const Clock::time_point epoch = Clock::now();
    std::vector<LayerCounts> counts(srcs.size());
    auto local_phase = [&](bool traced) {
      const Clock::time_point start = Clock::now();
      const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(part));
      std::vector<SpanRecorder*> recs;
      for (size_t i = 0; i < srcs.size(); ++i) {
        recorders.push_back(std::make_unique<SpanRecorder>(epoch, traced));
        recs.push_back(recorders.back().get());
      }
      std::vector<LayerCounts> unused(srcs.size());
      PhaseResult r;
      r.seconds = part;
      Append(RunClients(w.get(), srcs, start,
                        [&](size_t i, Pacer pacer, ClientLog* log) {
                          RunLocalClient(db.get(), srcs[i].get(), pacer, end,
                                         recs[i], i, log,
                                         traced ? &counts[i] : &unused[i]);
                        }),
             &r);
      return r;
    };
    phases.push_back(local_phase(false));
    const auto before_traced = Snapshot();
    phases.push_back(local_phase(true));
    const auto traced_delta = Delta(before_traced, Snapshot());

    LayerCounts total;
    for (const LayerCounts& c : counts) total.Add(c);
    std::vector<const SpanRecorder*> traced_recs;
    for (size_t i = recorders.size() - srcs.size(); i < recorders.size(); ++i) {
      traced_recs.push_back(recorders[i].get());
    }
    const SelfTimeReport self = ComputeSelfTimes(traced_recs);
    trace_ok = self.ok();
    metrics = PerLayer(w.get(), phases[0], wire_delta, phases[1], phases[2],
                       total, traced_delta, self, setups);
    std::map<std::string, double> by_name;
    for (const Metric& m : metrics) by_name[m.name] = m.value;
    std::string figures;
    const bool holds = w->HoldsProperty(by_name, &figures);
    std::printf("workload property %s: %s\n",
                holds ? "holds" : "does NOT hold", figures.c_str());
    const std::string spans_path = args.out_dir + "/spans_" + args.workload +
                                   "_seed" + std::to_string(args.seed) +
                                   ".json";
    if (!WriteSpansJson(spans_path, traced_recs)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::printf("spans: %s (%zu statements)\n", spans_path.c_str(),
                self.statements);
  }
  server->Stop();

  // The oracle, outside every timed span.  The outcomes move into one
  // list; with --trace 0 it is the single phase's and moves back below.
  std::vector<Outcome> all;
  std::string fatal;
  for (PhaseResult& p : phases) {
    if (!p.fatal.empty() && fatal.empty()) fatal = p.fatal;
    all.insert(all.end(), std::make_move_iterator(p.outcomes.begin()),
               std::make_move_iterator(p.outcomes.end()));
    p.outcomes.clear();
  }
  if (!fatal.empty()) {
    std::fprintf(stderr, "client failed: %s\n", fatal.c_str());
    return 1;
  }
  std::string first_error;
  w->Check(&all, &first_error);
  size_t attempted = all.size(), failed = 0;
  std::string first_failure;
  for (const Outcome& o : all) {
    if (!o.ok || o.wrong) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = o.ok ? first_error : o.error;
      }
    }
  }
  {
    auto session = db->Connect(db->session_defaults());
    if (!session.ok()) {
      std::fprintf(stderr, "final check: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    std::string final_error;
    const auto [n, bad] = w->FinalCheck(session->get(), all, &final_error);
    attempted += n;
    failed += bad;
    if (first_failure.empty()) first_failure = final_error;
  }
  if (args.trace == 0) {
    // Throughput counts only the statements the oracle passed.
    phases[0].outcomes = std::move(all);
    metrics = EndToEnd(phases[0], setup_s, peak_rss_mb);
  }

  std::printf("%s metrics:\n", args.trace == 0 ? "end-to-end" : "per-layer");
  for (const Metric& m : metrics) PrintMetric(m);
  std::printf("oracle: %zu attempted, %zu failed%s%s\n", attempted, failed,
              first_failure.empty() ? "" : ", first: ",
              first_failure.c_str());
  if (!trace_ok) std::printf("trace: self-time sum check FAILED\n");

  const std::string result_path = args.out_dir + "/result_" + args.workload +
                                  "_seed" + std::to_string(args.seed) +
                                  "_trace" + std::to_string(args.trace) +
                                  ".json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"seconds\": %d, \"trace\": %d, \"nproc\": %u, "
                 "\"build\": \"%s\", \"commit\": \"%s\", \"sources\": "
                 "\"%s\", \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
                 "%s}\n",
                 args.workload.c_str(), args.seed, args.seconds, args.trace,
                 std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                 args.commit.c_str(), args.source_digest.c_str(), attempted,
                 failed, JsonDetailed(metrics).c_str());
    std::fclose(f);
  }

  std::vector<Metric> reported;
  if (args.trace == 0) {
    for (const char* name : kGated) {
      for (const Metric& m : metrics) {
        if (m.name == name) reported.push_back(m);
      }
    }
    if (reported.size() != std::size(kGated)) {
      std::fprintf(stderr, "a gated metric is missing\n");
      return 1;
    }
  } else {
    reported = metrics;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed == 0 && trace_ok ? "true" : "false", attempted, failed,
              JsonMetrics(reported).c_str());
  std::fflush(stdout);
  server.reset();
  db.reset();
  w->Discard();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mural_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--commit SHA] "
                 "[--source-digest HEX]\n");
    return 2;
  }
  return perfbench::Main(args);
}
