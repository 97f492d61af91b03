// The benchmark's three workloads: seeded data, the statements each client
// sends, and the oracle that checks every answer.
//
//   paper_single  1 connection; Table-4 scale Psi scans, the Table-4 Psi
//                 join, and Omega counts whose closures mostly miss the
//                 closure cache.  Operator work dominates.
//   lookup_mix    4 connections over the Fig-1 Books schema; B+Tree point
//                 lookups, Zipf-skewed Psi lookups, hot Omega probes and a
//                 PREPAREd point lookup.  Per-statement overheads dominate.
//   ingest_mix    an open-loop writer inserting into a file-backed table
//                 with an M-Tree, beside two closed-loop Psi readers, with a
//                 buffer pool smaller than the data.
//
// The engine receives only generated statements; the oracle recomputes
// every answer from the generated data through public functions
// (PhoneticTransformer::Transform + Levenshtein for Psi, the taxonomy
// closure for Omega, generator ids for point lookups).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "trace.h"

namespace perfbench {

enum class Kind : int { kPsiScan, kPsiJoin, kOmega, kPoint, kInsert, kAnalyze };
constexpr int kNumKinds = 6;
const char* KindName(Kind kind);

struct Stmt {
  Kind kind = Kind::kPsiScan;
  std::string sql;
  /// EXECUTE only: the prepared SELECT, which the traced replay runs
  /// through Parse/Bind/Plan/Query itself.
  std::string body;
  /// What the oracle needs to recompute the answer (probe, concept,
  /// author or insert index).
  int64_t key = 0;
  /// Rows in the statement's FROM tables (0 for writes).
  int64_t base_rows = 0;
};

/// One answered (or failed) statement, kept for the oracle.
struct Outcome {
  Kind kind = Kind::kPsiScan;
  int64_t key = 0;
  bool ok = false;
  std::string error;
  std::vector<int64_t> values;  // first column of every row, sorted
  Clock::time_point sent;       // open loop: the scheduled send time
  Clock::time_point received;
  double runtime_ms = 0;        // from the engine (terminator or result)
  double queue_wait_ms = 0;
  int part = -1;                // part of the measured window; -1 = warm-up
  bool wrong = false;           // set by Workload::Check
};

struct SetupTimes {
  Clock::time_point open_at;  // just before Database::Open
  double load_s = 0;
  double index_s = 0;
  double mtree_build_s = 0;  // the M-Tree share of index_s
  double analyze_s = 0;
  double taxonomy_s = 0;
};

/// One client's statement stream.  Deterministic given the seed; streams
/// continue across the phases of a run, so inserts never repeat.
class StmtSource {
 public:
  virtual ~StmtSource() = default;
  /// Sent once when a connection or session opens; not timed.
  virtual std::vector<std::string> Prelude() const = 0;
  /// False once the stream is exhausted.
  virtual bool Next(Stmt* out) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop clients; ingest_mix adds one open-loop writer after them.
  virtual int closed_clients() const = 0;
  /// Writer statements per second (0 = no writer).
  virtual double writer_rate() const { return 0; }
  virtual mural::DatabaseOptions db_options() const;
  /// Builds a fresh Database through the public API.
  virtual mural::StatusOr<std::unique_ptr<mural::Database>> Build(
      SetupTimes* times) = 0;
  /// Releases what Build left on disk for `db` (after db is destroyed).
  virtual void Discard() {}
  /// Client `index`'s stream; index closed_clients() is the writer.
  virtual std::unique_ptr<StmtSource> Source(int index) = 0;
  /// Marks wrong answers among ok outcomes (Outcome::wrong); fills
  /// `first_error` with the first one.
  virtual void Check(std::vector<Outcome>* outcomes,
                     std::string* first_error) = 0;
  /// End-of-run checks against the final database state (run through
  /// `session`, untimed).  Returns {attempted, failed}.
  virtual std::pair<size_t, size_t> FinalCheck(
      mural::Session* /*session*/, const std::vector<Outcome>& /*outcomes*/,
      std::string* /*first_error*/) {
    return {0, 0};
  }
  /// The property the workload's synthetic statement mix exists to keep
  /// (see perfbench/README.md), checked on the traced run's per-layer
  /// metrics by name.  Fills `figures` with what it compared.
  virtual bool HoldsProperty(const std::map<std::string, double>& m,
                             std::string* figures) const = 0;
  /// Data sizes against the pool, one "name: value" line each.
  virtual std::vector<std::string> Describe(mural::Database* db) const = 0;
  /// Strings the traced run pushes through PhoneticTransformer::Transform.
  virtual std::vector<mural::UniText> G2pInputs() const = 0;
  /// (probe phonemes, row phonemes) pairs for the distance-kernel timing.
  virtual std::vector<std::pair<std::string, std::string>> KernelPairs()
      const = 0;

  int threshold() const { return threshold_; }

 protected:
  int threshold_ = 2;
};

/// Null for an unknown name.  `data_dir` holds file-backed databases;
/// `max_seconds` bounds how long the statement streams must last.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& data_dir,
                                       double max_seconds);

}  // namespace perfbench
