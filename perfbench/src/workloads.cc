#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "catalog/catalog.h"
#include "datagen/catalog_generator.h"
#include "datagen/name_generator.h"
#include "datagen/taxonomy_generator.h"
#include "distance/edit_distance.h"
#include "phonetic/transformer.h"
#include "session/session.h"
#include "text/language.h"

namespace perfbench {

using mural::Database;
using mural::DatabaseOptions;
using mural::LangId;
using mural::Row;
using mural::Schema;
using mural::Status;
using mural::StatusOr;
using mural::SynsetId;
using mural::TypeId;
using mural::UniText;
using mural::Value;

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kPsiScan: return "psi_scan";
    case Kind::kPsiJoin: return "psi_join";
    case Kind::kOmega: return "omega";
    case Kind::kPoint: return "point";
    case Kind::kInsert: return "insert";
    case Kind::kAnalyze: return "analyze";
  }
  return "?";
}

DatabaseOptions Workload::db_options() const {
  // murald's shipped values: only the admission gate width differs from
  // the DatabaseOptions defaults (8 concurrent, queue 16, 1000 ms).
  DatabaseOptions options;
  options.admission.max_concurrent = 8;
  return options;
}

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string LangName(LangId lang) {
  return mural::LanguageRegistry::Default().NameOf(lang);
}

std::string Literal(const UniText& u) {
  return "'" + u.text() + "'@" + LangName(u.lang());
}

std::string Phonemes(const UniText& u) {
  return mural::PhoneticTransformer::Default().Transform(u.text(), u.lang());
}

/// The oracle's Psi test: exact Levenshtein over phoneme strings, skipping
/// pairs whose length difference alone exceeds k (a lower bound on the
/// distance, so no pair is misjudged).
bool Within(const std::string& a, const std::string& b, int k) {
  const size_t gap = a.size() > b.size() ? a.size() - b.size()
                                         : b.size() - a.size();
  if (gap > static_cast<size_t>(k)) return false;
  return mural::Levenshtein(a, b) <= k;
}

struct NameRow {
  int32_t id = 0;
  UniText name;
  std::string phonemes;
};

/// Names the SQL front end can quote (its literals have no escapes).
bool Quotable(const UniText& u) {
  return !u.text().empty() && u.text().find('\'') == std::string::npos;
}

std::vector<NameRow> MakeNameRows(size_t bases, size_t variants,
                                  uint64_t seed) {
  mural::NameGenOptions options;
  options.seed = seed;
  options.num_bases = bases;
  options.variants_per_base = variants;
  std::vector<NameRow> rows;
  for (const mural::NameRecord& rec : mural::GenerateNames(options)) {
    rows.push_back(
        {static_cast<int32_t>(rows.size()), rec.name, Phonemes(rec.name)});
  }
  return rows;
}

/// Rows bucketed by phoneme length.  A Psi match at threshold k differs
/// in length by at most k, so the oracle visits only 2k+1 buckets.
class ByLength {
 public:
  explicit ByLength(const std::vector<NameRow>& rows) : rows_(rows) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t len = rows[i].phonemes.size();
      if (len >= buckets_.size()) buckets_.resize(len + 1);
      buckets_[len].push_back(i);
    }
  }

  /// Indexes of the matching rows, ascending.
  std::vector<size_t> Matches(const std::string& probe, int k) const {
    std::vector<size_t> out;
    const size_t len = probe.size();
    const size_t lo = len > static_cast<size_t>(k) ? len - k : 0;
    for (size_t l = lo; l <= len + k && l < buckets_.size(); ++l) {
      for (const size_t i : buckets_[l]) {
        if (Within(probe, rows_[i].phonemes, k)) out.push_back(i);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Ids of the matching rows, ascending.
  std::vector<int64_t> MatchingIds(const std::string& probe, int k) const {
    std::vector<int64_t> ids;
    for (const size_t i : Matches(probe, k)) ids.push_back(rows_[i].id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  const std::vector<NameRow>& rows_;
  std::vector<std::vector<size_t>> buckets_;
};

Schema NamesSchema(const char* key, const char* name) {
  return Schema({{key, TypeId::kInt32}, {name, TypeId::kUniText, true}});
}

Status LoadNames(Database* db, const char* table, const Schema& schema,
                 const std::vector<NameRow>& names) {
  MURAL_RETURN_IF_ERROR(db->CreateTable(table, schema));
  std::vector<Row> rows;
  rows.reserve(names.size());
  for (const NameRow& n : names) {
    rows.push_back({Value::Int32(n.id), Value::Uni(n.name)});
  }
  return db->InsertBulk(table, std::move(rows));
}

std::vector<NameRow> PickProbes(const std::vector<NameRow>& rows,
                                size_t count, uint64_t seed) {
  mural::Rng rng(seed);
  std::vector<NameRow> probes;
  while (probes.size() < count) {
    const NameRow& r = rows[rng.Uniform(rows.size())];
    if (Quotable(r.name)) probes.push_back(r);
  }
  return probes;
}

mural::GeneratedTaxonomy MakeTaxonomy(uint64_t seed, size_t base_synsets) {
  mural::TaxonomyGenOptions options;
  options.seed = seed;
  options.base_synsets = base_synsets;
  options.languages = {mural::lang::kEnglish, mural::lang::kTamil,
                       mural::lang::kFrench};
  return mural::GenerateTaxonomy(options);
}

/// Synsets (any language) whose closure holds between `min_size` and
/// `max_size` members, sampled uniformly.
std::vector<SynsetId> PickConcepts(const mural::GeneratedTaxonomy& gen,
                                   size_t count, size_t min_size,
                                   size_t max_size, uint64_t seed) {
  std::vector<SynsetId> all = gen.base_synsets;
  for (const auto& reps : gen.replicas) {
    all.insert(all.end(), reps.begin(), reps.end());
  }
  mural::Rng rng(seed);
  std::unordered_set<SynsetId> seen;
  std::vector<SynsetId> picked;
  for (size_t attempts = 0; picked.size() < count && attempts < count * 50;
       ++attempts) {
    const SynsetId id = all[rng.Uniform(all.size())];
    if (!seen.insert(id).second) continue;
    const size_t size = gen.taxonomy->TransitiveClosure(id).size();
    if (size >= min_size && size <= max_size) picked.push_back(id);
  }
  return picked;
}

UniText ConceptValue(const mural::Taxonomy& tax, SynsetId id) {
  const mural::Synset& s = tax.Get(id);
  return UniText(s.lemma, s.lang);
}

/// Omega reference: books whose category lies in the closure of the
/// concept's synsets, from the generator's own taxonomy copy.
class OmegaOracle {
 public:
  OmegaOracle(mural::GeneratedTaxonomy gen,
              const std::vector<mural::BookRow>& books)
      : gen_(std::move(gen)) {
    for (const mural::BookRow& b : books) {
      book_synsets_.push_back(gen_.taxonomy->Lookup(b.category));
    }
  }
  const mural::Taxonomy& taxonomy() const { return *gen_.taxonomy; }

  int64_t Count(SynsetId concept_id) {
    auto it = memo_.find(concept_id);
    if (it != memo_.end()) return it->second;
    const mural::Taxonomy& tax = *gen_.taxonomy;
    const std::vector<SynsetId> roots =
        tax.Lookup(ConceptValue(tax, concept_id));
    const mural::Closure closure = tax.TransitiveClosureOfAll(roots);
    int64_t n = 0;
    for (const auto& ids : book_synsets_) {
      for (SynsetId id : ids) {
        if (closure.count(id) > 0) {
          ++n;
          break;
        }
      }
    }
    memo_[concept_id] = n;
    return n;
  }

 private:
  mural::GeneratedTaxonomy gen_;
  std::vector<std::vector<SynsetId>> book_synsets_;
  std::unordered_map<SynsetId, int64_t> memo_;
};

Schema BookSchema() {
  return Schema({{"BookID", TypeId::kInt32},
                 {"AuthorID", TypeId::kInt32},
                 {"PublisherID", TypeId::kInt32},
                 {"Title", TypeId::kUniText},
                 {"Category", TypeId::kUniText}});
}

Status LoadBooks(Database* db, const std::vector<mural::BookRow>& books) {
  MURAL_RETURN_IF_ERROR(db->CreateTable("Book", BookSchema()));
  std::vector<Row> rows;
  rows.reserve(books.size());
  for (const mural::BookRow& b : books) {
    rows.push_back({Value::Int32(b.book_id), Value::Int32(b.author_id),
                    Value::Int32(b.publisher_id), Value::Uni(b.title),
                    Value::Uni(b.category)});
  }
  return db->InsertBulk("Book", std::move(rows));
}

std::string TableLine(Database* db, const char* table) {
  auto info = db->catalog()->GetTable(table);
  if (!info.ok()) return std::string(table) + ": missing";
  const uint32_t pages = (*info)->heap->num_pages();
  return std::string(table) + ": " + std::to_string(pages) +
         " heap pages (" + std::to_string(pages * 8 / 1024.0).substr(0, 5) +
         " MiB)";
}

std::string PoolLine(const DatabaseOptions& o) {
  return "buffer pool: " + std::to_string(o.buffer_pool_pages) +
         " frames x 8 KiB (" +
         std::to_string(o.buffer_pool_pages * 8 / 1024.0).substr(0, 5) +
         " MiB)";
}

bool CheckSet(const Outcome& o, const std::vector<int64_t>& expected,
              std::string* first_error) {
  if (o.values == expected) return true;
  if (first_error->empty()) {
    *first_error = std::string(KindName(o.kind)) + " key " +
                   std::to_string(o.key) + ": got " +
                   std::to_string(o.values.size()) + " rows, expected " +
                   std::to_string(expected.size());
  }
  return false;
}

bool CheckCount(const Outcome& o, int64_t expected,
                std::string* first_error) {
  if (o.values.size() == 1 && o.values[0] == expected) return true;
  if (first_error->empty()) {
    *first_error = std::string(KindName(o.kind)) + " key " +
                   std::to_string(o.key) + ": got " +
                   (o.values.empty() ? std::string("no row")
                                     : std::to_string(o.values[0])) +
                   ", expected " + std::to_string(expected);
  }
  return false;
}

/// Deals statement kinds from a shuffled deck holding `cards[k]` cards of
/// kind k, so every pass through the deck carries the exact mix and runs
/// differ only in order.
class Mix {
 public:
  explicit Mix(const std::vector<int>& cards) {
    for (size_t kind = 0; kind < cards.size(); ++kind) {
      deck_.insert(deck_.end(), cards[kind], kind);
    }
    next_ = deck_.size();
  }
  size_t Pick(mural::Rng* rng) {
    if (next_ == deck_.size()) {
      rng->Shuffle(&deck_);
      next_ = 0;
    }
    return deck_[next_++];
  }

 private:
  std::vector<size_t> deck_;
  size_t next_ = 0;
};

uint64_t ClientSeed(uint64_t seed, int index) {
  return seed * 1000003u + static_cast<uint64_t>(index) * 7919u + 17u;
}

/// "name=value" for HoldsProperty's figures.
std::string Fig(const char* name, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%.4g", name, v);
  return buf;
}

/// Sum of every trace.<span>.self_ms_per_stmt: the in-process statement
/// time.
double TracedStatementMs(const std::map<std::string, double>& m) {
  double ms = 0;
  for (const auto& [name, v] : m) {
    const std::string suffix = ".self_ms_per_stmt";
    if (name.rfind("trace.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ms += v;
    }
  }
  return ms;
}

// ---------------------------------------------------------------------------
// paper_single

class PaperSingle : public Workload {
 public:
  explicit PaperSingle(uint64_t seed)
      : seed_(seed),
        names_(MakeNameRows(6000, 5, seed)),
        jnames_(MakeNameRows(300, 4, seed + 1)),
        jothers_(MakeNameRows(100, 4, seed + 2)),
        probes_(PickProbes(names_, 128, seed + 3)),
        names_by_length_(names_) {
    threshold_ = 3;
    mural::GeneratedTaxonomy gen = MakeTaxonomy(seed, 20000);
    mural::BooksGenOptions books;
    books.seed = seed;
    books_ = mural::GenerateBooks(books, gen).books;
    concepts_ = PickConcepts(gen, 2000, 2, 3000, seed + 4);
    oracle_ = std::make_unique<OmegaOracle>(std::move(gen), books_);
  }

  int closed_clients() const override { return 1; }

  StatusOr<std::unique_ptr<Database>> Build(SetupTimes* t) override {
    mural::GeneratedTaxonomy gen = MakeTaxonomy(seed_, 20000);
    t->open_at = Clock::now();
    MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Open(db_options()));
    Clock::time_point step = Clock::now();
    MURAL_RETURN_IF_ERROR(
        LoadNames(db.get(), "names", NamesSchema("id", "name"), names_));
    MURAL_RETURN_IF_ERROR(
        LoadNames(db.get(), "jnames", NamesSchema("id", "name"), jnames_));
    MURAL_RETURN_IF_ERROR(
        LoadNames(db.get(), "jothers", NamesSchema("id", "name"), jothers_));
    MURAL_RETURN_IF_ERROR(LoadBooks(db.get(), books_));
    t->load_s = SecondsSince(step);
    step = Clock::now();
    for (const char* table : {"names", "jnames", "jothers", "Book"}) {
      MURAL_RETURN_IF_ERROR(db->Analyze(table));
    }
    t->analyze_s = SecondsSince(step);
    step = Clock::now();
    MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(gen.taxonomy)));
    t->taxonomy_s = SecondsSince(step);
    return db;
  }

  std::unique_ptr<StmtSource> Source(int index) override {
    return std::make_unique<Src>(this, ClientSeed(seed_, index));
  }

  void Check(std::vector<Outcome>* outcomes,
             std::string* first_error) override {
    for (Outcome& o : *outcomes) {
      if (!o.ok) continue;
      bool good = true;
      switch (o.kind) {
        case Kind::kPsiScan:
          good = CheckSet(o, ScanAnswer(o.key), first_error);
          break;
        case Kind::kPsiJoin:
          good = CheckCount(o, JoinAnswer(), first_error);
          break;
        case Kind::kOmega:
          good = CheckCount(o, oracle_->Count(concepts_[o.key]),
                            first_error);
          break;
        default:
          good = false;
      }
      o.wrong = !good;
    }
  }

  bool HoldsProperty(const std::map<std::string, double>& m,
                     std::string* figures) const override {
    // Operator work dominates: execution is at least 90% of the
    // in-process statement time, and the server path outside execution
    // is at most 5% of a Psi scan's execution.
    const double exec_share =
        m.at("trace.exec.self_ms_per_stmt") / TracedStatementMs(m);
    const double server_share =
        m.at("server.overhead_p50_ms") / m.at("exec.run_ms.psi_scan");
    *figures = Fig("exec_share", exec_share) + " (>= 0.9), " +
               Fig("server_share", server_share) + " (<= 0.05)";
    return exec_share >= 0.9 && server_share <= 0.05;
  }

  std::vector<std::string> Describe(Database* db) const override {
    return {TableLine(db, "names") + ", " + std::to_string(names_.size()) +
                " rows",
            TableLine(db, "jnames") + ", " + std::to_string(jnames_.size()) +
                " rows",
            TableLine(db, "jothers") + ", " +
                std::to_string(jothers_.size()) + " rows",
            TableLine(db, "Book") + ", " + std::to_string(books_.size()) +
                " rows",
            "taxonomy: 20000 base synsets x 3 languages, " +
                std::to_string(concepts_.size()) + " Omega concepts",
            PoolLine(db_options())};
  }

  std::vector<UniText> G2pInputs() const override {
    std::vector<UniText> out;
    for (const NameRow& p : probes_) out.push_back(p.name);
    return out;
  }

  std::vector<std::pair<std::string, std::string>> KernelPairs()
      const override {
    std::vector<std::pair<std::string, std::string>> out;
    for (size_t p = 0; p < 16; ++p) {
      for (size_t r = 0; r < names_.size(); r += 16) {
        out.emplace_back(probes_[p].phonemes, names_[r].phonemes);
      }
    }
    return out;
  }

 private:
  class Src : public StmtSource {
   public:
    Src(PaperSingle* w, uint64_t seed) : w_(w), rng_(seed) {}
    std::vector<std::string> Prelude() const override {
      return {"SET LEXEQUAL_THRESHOLD = 3"};
    }
    bool Next(Stmt* s) override {
      *s = Stmt();
      switch (mix_.Pick(&rng_)) {
        case 0:
          s->kind = Kind::kPsiScan;
          s->key = static_cast<int64_t>(rng_.Uniform(w_->probes_.size()));
          s->sql = "SELECT id FROM names WHERE name LexEQUAL " +
                   Literal(w_->probes_[s->key].name);
          s->base_rows = static_cast<int64_t>(w_->names_.size());
          break;
        case 1:
          s->kind = Kind::kPsiJoin;
          s->sql =
              "SELECT count(*) FROM jnames A, jothers B "
              "WHERE A.name LexEQUAL B.name";
          s->base_rows =
              static_cast<int64_t>(w_->jnames_.size() + w_->jothers_.size());
          break;
        default:
          s->kind = Kind::kOmega;
          s->key = static_cast<int64_t>(rng_.Uniform(w_->concepts_.size()));
          s->sql = "SELECT count(*) FROM Book WHERE Category SemEQUAL " +
                   Literal(ConceptValue(w_->oracle_->taxonomy(),
                                        w_->concepts_[s->key]));
          s->base_rows = static_cast<int64_t>(w_->books_.size());
          break;
      }
      return true;
    }

   private:
    PaperSingle* w_;
    mural::Rng rng_;
    Mix mix_{{45, 25, 30}};  // Psi scan, Psi join, Omega
  };

  const std::vector<int64_t>& ScanAnswer(int64_t key) {
    auto it = scan_memo_.find(key);
    if (it == scan_memo_.end()) {
      it = scan_memo_
               .emplace(key, names_by_length_.MatchingIds(
                                 probes_[key].phonemes, threshold_))
               .first;
    }
    return it->second;
  }

  int64_t JoinAnswer() {
    if (join_answer_ < 0) {
      join_answer_ = 0;
      for (const NameRow& a : jnames_) {
        for (const NameRow& b : jothers_) {
          if (Within(a.phonemes, b.phonemes, threshold_)) ++join_answer_;
        }
      }
    }
    return join_answer_;
  }

  uint64_t seed_;
  std::vector<NameRow> names_, jnames_, jothers_, probes_;
  ByLength names_by_length_;
  std::vector<mural::BookRow> books_;
  std::vector<SynsetId> concepts_;
  std::unique_ptr<OmegaOracle> oracle_;
  std::unordered_map<int64_t, std::vector<int64_t>> scan_memo_;
  int64_t join_answer_ = -1;
};


// ---------------------------------------------------------------------------
// lookup_mix

class LookupMix : public Workload {
 public:
  explicit LookupMix(uint64_t seed) : seed_(seed) {
    threshold_ = 2;
    mural::GeneratedTaxonomy gen = MakeTaxonomy(seed, kBaseSynsets);
    mural::BooksGenOptions options;
    options.seed = seed;
    data_ = mural::GenerateBooks(options, gen);
    for (const mural::AuthorRow& a : data_.authors) {
      authors_.push_back({a.author_id, a.name, Phonemes(a.name)});
    }
    for (const mural::BookRow& b : data_.books) {
      books_by_author_[b.author_id].push_back(b.book_id);
    }
    for (auto& [author, books] : books_by_author_) {
      std::sort(books.begin(), books.end());
    }
    probes_ = PickProbes(authors_, 2000, seed + 3);
    authors_by_length_ = std::make_unique<ByLength>(authors_);
    hot_concepts_ = PickConcepts(gen, 8, 4, 500, seed + 4);
    oracle_ = std::make_unique<OmegaOracle>(std::move(gen), data_.books);
  }

  int closed_clients() const override { return 4; }

  StatusOr<std::unique_ptr<Database>> Build(SetupTimes* t) override {
    mural::GeneratedTaxonomy gen = MakeTaxonomy(seed_, kBaseSynsets);
    t->open_at = Clock::now();
    MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Open(db_options()));
    Clock::time_point step = Clock::now();
    MURAL_RETURN_IF_ERROR(LoadNames(db.get(), "Author",
                                    NamesSchema("AuthorID", "AName"),
                                    authors_));
    std::vector<NameRow> publishers;
    for (const mural::PublisherRow& p : data_.publishers) {
      publishers.push_back({p.publisher_id, p.name, ""});
    }
    MURAL_RETURN_IF_ERROR(LoadNames(db.get(), "Publisher",
                                    NamesSchema("PublisherID", "PName"),
                                    publishers));
    MURAL_RETURN_IF_ERROR(LoadBooks(db.get(), data_.books));
    t->load_s = SecondsSince(step);
    step = Clock::now();
    MURAL_RETURN_IF_ERROR(db->CreateIndex("book_author", "Book", "AuthorID",
                                          mural::IndexKind::kBTree, false));
    t->index_s = SecondsSince(step);
    step = Clock::now();
    for (const char* table : {"Author", "Publisher", "Book"}) {
      MURAL_RETURN_IF_ERROR(db->Analyze(table));
    }
    t->analyze_s = SecondsSince(step);
    step = Clock::now();
    MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(gen.taxonomy)));
    t->taxonomy_s = SecondsSince(step);
    return db;
  }

  std::unique_ptr<StmtSource> Source(int index) override {
    return std::make_unique<Src>(this, ClientSeed(seed_, index));
  }

  void Check(std::vector<Outcome>* outcomes,
             std::string* first_error) override {
    static const std::vector<int64_t> kNone;
    for (Outcome& o : *outcomes) {
      if (!o.ok) continue;
      bool good = true;
      switch (o.kind) {
        case Kind::kPoint: {
          auto it = books_by_author_.find(static_cast<int32_t>(o.key));
          good = CheckSet(o, it == books_by_author_.end() ? kNone : it->second,
                          first_error);
          break;
        }
        case Kind::kPsiScan: {
          auto it = psi_memo_.find(o.key);
          if (it == psi_memo_.end()) {
            it = psi_memo_
                     .emplace(o.key, authors_by_length_->MatchingIds(
                                         probes_[o.key].phonemes, threshold_))
                     .first;
          }
          good = CheckSet(o, it->second, first_error);
          break;
        }
        case Kind::kOmega:
          good = CheckCount(o, oracle_->Count(hot_concepts_[o.key]),
                            first_error);
          break;
        default:
          good = false;
      }
      o.wrong = !good;
    }
  }

  bool HoldsProperty(const std::map<std::string, double>& m,
                     std::string* figures) const override {
    // Per-statement overhead is a large share of the common statement: on
    // a point lookup the server path outside execution is at least 30% of
    // the round trip.
    const double overhead = m.at("server.overhead_p50_ms");
    const double share = overhead / (overhead + m.at("exec.run_ms.point"));
    *figures = Fig("point_overhead_share", share) + " (>= 0.3)";
    return share >= 0.3;
  }

  std::vector<std::string> Describe(Database* db) const override {
    return {TableLine(db, "Author") + ", " +
                std::to_string(data_.authors.size()) + " rows",
            TableLine(db, "Publisher") + ", " +
                std::to_string(data_.publishers.size()) + " rows",
            TableLine(db, "Book") + ", " + std::to_string(data_.books.size()) +
                " rows, B+Tree on AuthorID",
            "taxonomy: " + std::to_string(kBaseSynsets) +
                " base synsets x 3 languages, " +
                std::to_string(hot_concepts_.size()) + " hot Omega concepts",
            "Psi probes: " + std::to_string(probes_.size()) +
                " author names, Zipf s=0.8",
            PoolLine(db_options())};
  }

  std::vector<UniText> G2pInputs() const override {
    std::vector<UniText> out;
    for (const NameRow& p : probes_) out.push_back(p.name);
    return out;
  }

  std::vector<std::pair<std::string, std::string>> KernelPairs()
      const override {
    std::vector<std::pair<std::string, std::string>> out;
    for (size_t p = 0; p < 16; ++p) {
      for (const NameRow& a : authors_) {
        out.emplace_back(probes_[p].phonemes, a.phonemes);
      }
    }
    return out;
  }

 private:
  static constexpr size_t kBaseSynsets = 5000;

  class Src : public StmtSource {
   public:
    Src(LookupMix* w, uint64_t seed)
        : w_(w),
          rng_(seed),
          zipf_(w->probes_.size(), 0.8, seed + 1),
          prepared_author_(
              static_cast<int64_t>(rng_.Uniform(w->authors_.size()))) {}
    std::vector<std::string> Prelude() const override {
      return {"SET LEXEQUAL_THRESHOLD = 2", "PREPARE by_author AS " + Body()};
    }
    bool Next(Stmt* s) override {
      *s = Stmt();
      s->base_rows = static_cast<int64_t>(w_->data_.books.size());
      switch (mix_.Pick(&rng_)) {
        case 0:
          s->kind = Kind::kPoint;
          s->key = static_cast<int64_t>(rng_.Uniform(w_->authors_.size()));
          s->sql = "SELECT BookID FROM Book WHERE AuthorID = " +
                   std::to_string(s->key);
          break;
        case 1:
          s->kind = Kind::kPoint;
          s->key = prepared_author_;
          s->sql = "EXECUTE by_author";
          s->body = Body();
          break;
        case 2:
          s->kind = Kind::kPsiScan;
          s->key = static_cast<int64_t>(zipf_.Next());
          s->sql = "SELECT AuthorID FROM Author WHERE AName LexEQUAL " +
                   Literal(w_->probes_[s->key].name);
          s->base_rows = static_cast<int64_t>(w_->authors_.size());
          break;
        default:
          s->kind = Kind::kOmega;
          s->key =
              static_cast<int64_t>(rng_.Uniform(w_->hot_concepts_.size()));
          s->sql = "SELECT count(*) FROM Book WHERE Category SemEQUAL " +
                   Literal(ConceptValue(w_->oracle_->taxonomy(),
                                        w_->hot_concepts_[s->key]));
          break;
      }
      return true;
    }

   private:
    std::string Body() const {
      return "SELECT BookID FROM Book WHERE AuthorID = " +
             std::to_string(prepared_author_);
    }

    LookupMix* w_;
    mural::Rng rng_;
    mural::ZipfGenerator zipf_;
    int64_t prepared_author_;
    Mix mix_{{600, 277, 120, 3}};  // point, EXECUTE, Psi, Omega
  };

  uint64_t seed_;
  mural::BooksDataset data_;
  std::vector<NameRow> authors_, probes_;
  std::unique_ptr<ByLength> authors_by_length_;
  std::unordered_map<int32_t, std::vector<int64_t>> books_by_author_;
  std::vector<SynsetId> hot_concepts_;
  std::unique_ptr<OmegaOracle> oracle_;
  std::unordered_map<int64_t, std::vector<int64_t>> psi_memo_;
};

// ---------------------------------------------------------------------------
// ingest_mix

class IngestMix : public Workload {
 public:
  IngestMix(uint64_t seed, std::string data_dir, double max_seconds)
      : seed_(seed),
        disk_path_(std::move(data_dir) + "/ingest_mix.db"),
        initial_(MakeNameRows(kInitialBases, 5, seed)),
        probes_(PickProbes(initial_, 256, seed + 3)) {
    threshold_ = 2;
    const std::vector<LangId> langs = {
        mural::lang::kEnglish, mural::lang::kHindi, mural::lang::kTamil,
        mural::lang::kKannada, mural::lang::kFrench};
    mural::Rng rng(seed + 5);
    const size_t count = static_cast<size_t>(kRate * (max_seconds + 10));
    const int32_t first_id = static_cast<int32_t>(initial_.size());
    while (inserts_.size() < count) {
      const std::string base = mural::RandomBaseName(&rng);
      const LangId lang = langs[rng.Uniform(langs.size())];
      UniText name(mural::RenderNameInLanguage(base, lang, &rng, 0.25), lang);
      if (!Quotable(name)) continue;
      const int32_t id = first_id + static_cast<int32_t>(inserts_.size());
      inserts_.push_back({id, name, Phonemes(name)});
    }
    initial_by_length_ = std::make_unique<ByLength>(initial_);
    inserts_by_length_ = std::make_unique<ByLength>(inserts_);
  }

  int closed_clients() const override { return 2; }
  double writer_rate() const override { return kRate; }

  DatabaseOptions db_options() const override {
    DatabaseOptions options = Workload::db_options();
    options.buffer_pool_pages = kPoolFrames;
    options.disk_path = disk_path_;
    return options;
  }

  StatusOr<std::unique_ptr<Database>> Build(SetupTimes* t) override {
    Discard();
    t->open_at = Clock::now();
    MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Open(db_options()));
    Clock::time_point step = Clock::now();
    MURAL_RETURN_IF_ERROR(
        LoadNames(db.get(), "names", NamesSchema("id", "name"), initial_));
    t->load_s = SecondsSince(step);
    step = Clock::now();
    MURAL_RETURN_IF_ERROR(db->CreateIndex("names_mtree", "names", "name",
                                          mural::IndexKind::kMTree, true));
    t->index_s = SecondsSince(step);
    t->mtree_build_s = t->index_s;
    step = Clock::now();
    MURAL_RETURN_IF_ERROR(db->Analyze("names"));
    t->analyze_s = SecondsSince(step);
    generated_.store(0);
    return db;
  }

  void Discard() override { std::remove(disk_path_.c_str()); }

  std::unique_ptr<StmtSource> Source(int index) override {
    if (index == closed_clients()) return std::make_unique<Writer>(this);
    return std::make_unique<Reader>(this, ClientSeed(seed_, index));
  }

  void Check(std::vector<Outcome>* outcomes,
             std::string* first_error) override {
    // Insert i's send and acknowledgement times bracket its visibility: a
    // read sent after the ack must see the row; a read answered before the
    // insert was sent must not.
    std::vector<const Outcome*> acked(inserts_.size(), nullptr);
    for (const Outcome& o : *outcomes) {
      if (o.kind == Kind::kInsert && o.ok) acked[o.key] = &o;
    }
    for (Outcome& o : *outcomes) {
      if (!o.ok) continue;
      if (o.kind == Kind::kInsert) {
        o.wrong = !CheckCount(o, 1, first_error);
        continue;
      }
      if (o.kind == Kind::kAnalyze) continue;
      const Expected& e = ExpectedFor(o.key);
      std::vector<int64_t> must = e.initial;
      std::vector<int64_t> may;
      for (const size_t i : e.inserts) {
        if (acked[i] == nullptr) continue;
        if (acked[i]->received < o.sent) {
          must.push_back(inserts_[i].id);
        } else if (acked[i]->sent < o.received) {
          may.push_back(inserts_[i].id);
        }
      }
      std::sort(must.begin(), must.end());
      std::vector<int64_t> got_must, got_rest;
      for (const int64_t v : o.values) {
        (std::binary_search(must.begin(), must.end(), v) ? got_must
                                                         : got_rest)
            .push_back(v);
      }
      bool good = got_must == must;
      for (const int64_t v : got_rest) {
        good = good && std::find(may.begin(), may.end(), v) != may.end();
      }
      o.wrong = !good;
      if (!good) {
        if (first_error->empty()) {
          *first_error = "psi_scan key " + std::to_string(o.key) + ": got " +
                         std::to_string(o.values.size()) + " rows, expected " +
                         std::to_string(must.size()) + " to " +
                         std::to_string(must.size() + may.size());
        }
      }
    }
  }

  std::pair<size_t, size_t> FinalCheck(mural::Session* session,
                                       const std::vector<Outcome>& outcomes,
                                       std::string* first_error) override {
    std::vector<size_t> ok_inserts;
    for (const Outcome& o : outcomes) {
      if (o.kind == Kind::kInsert && o.ok) ok_inserts.push_back(o.key);
    }
    std::sort(ok_inserts.begin(), ok_inserts.end());
    size_t attempted = 1, failed = 0;
    const int64_t want =
        static_cast<int64_t>(initial_.size() + ok_inserts.size());
    auto count = session->Sql("SELECT count(*) FROM names");
    if (!count.ok() || count->rows.size() != 1 ||
        count->rows[0][0].int64() != want) {
      ++failed;
      if (first_error->empty()) {
        *first_error = "final row count differs from " + std::to_string(want);
      }
    }
    // The last inserted names must be found by a Psi probe.
    const size_t first = ok_inserts.size() > 10 ? ok_inserts.size() - 10 : 0;
    for (size_t j = first; j < ok_inserts.size(); ++j) {
      const NameRow& row = inserts_[ok_inserts[j]];
      ++attempted;
      auto found = session->Sql("SELECT id FROM names WHERE name LexEQUAL " +
                                Literal(row.name));
      bool hit = false;
      if (found.ok()) {
        for (const Row& r : found->rows) hit = hit || r[0].int32() == row.id;
      }
      if (!hit) {
        ++failed;
        if (first_error->empty()) {
          *first_error = "inserted id " + std::to_string(row.id) +
                         " not found by its own Psi probe";
        }
      }
    }
    return {attempted, failed};
  }

  bool HoldsProperty(const std::map<std::string, double>& m,
                     std::string* figures) const override {
    // The data outgrows the pool: reads miss and writes evict.
    const double miss = m.at("storage.miss_ratio");
    const double evictions = m.at("storage.evictions_per_stmt");
    *figures = Fig("miss_ratio", miss) + " (>= 0.05), " +
               Fig("evictions_per_stmt", evictions) + " (>= 1)";
    return miss >= 0.05 && evictions >= 1;
  }

  std::vector<std::string> Describe(Database* db) const override {
    const uint32_t file_pages = db->disk()->NumPages();
    return {TableLine(db, "names") + ", " + std::to_string(initial_.size()) +
                " rows at start, M-Tree on the phonemes",
            "data file (heap + M-Tree): " + std::to_string(file_pages) +
                " pages (" + std::to_string(file_pages * 8 / 1024.0).substr(0, 5) +
                " MiB)",
            PoolLine(db_options()),
            "writer: open loop, " + std::to_string(static_cast<int>(kRate)) +
                " INSERT/s, ANALYZE every " + std::to_string(kAnalyzeEvery) +
                " rows"};
  }

  std::vector<UniText> G2pInputs() const override {
    std::vector<UniText> out;
    for (const NameRow& p : probes_) out.push_back(p.name);
    for (size_t i = 0; i < inserts_.size() && i < 1024; ++i) {
      out.push_back(inserts_[i].name);
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> KernelPairs()
      const override {
    std::vector<std::pair<std::string, std::string>> out;
    for (size_t p = 0; p < 16; ++p) {
      for (size_t r = 0; r < initial_.size(); r += 4) {
        out.emplace_back(probes_[p].phonemes, initial_[r].phonemes);
      }
    }
    return out;
  }

 private:
  static constexpr size_t kInitialBases = 2000;  // x 5 variants
  static constexpr size_t kPoolFrames = 48;
  static constexpr double kRate = 100;
  static constexpr int kAnalyzeEvery = 250;

  struct Expected {
    std::vector<int64_t> initial;  // matching initial rows
    std::vector<size_t> inserts;   // matching insert indexes
  };

  /// Reader keys: >= 0 is an initial-row probe, < 0 is insert -key-1.
  const std::string& ProbePhonemes(int64_t key) const {
    return key >= 0 ? probes_[key].phonemes : inserts_[-key - 1].phonemes;
  }
  const UniText& ProbeName(int64_t key) const {
    return key >= 0 ? probes_[key].name : inserts_[-key - 1].name;
  }

  const Expected& ExpectedFor(int64_t key) {
    auto it = expected_.find(key);
    if (it != expected_.end()) return it->second;
    Expected e;
    const std::string& ph = ProbePhonemes(key);
    e.initial = initial_by_length_->MatchingIds(ph, threshold_);
    e.inserts = inserts_by_length_->Matches(ph, threshold_);
    return expected_.emplace(key, std::move(e)).first->second;
  }

  class Writer : public StmtSource {
   public:
    explicit Writer(IngestMix* w) : w_(w) {}
    std::vector<std::string> Prelude() const override { return {}; }
    bool Next(Stmt* s) override {
      *s = Stmt();
      if (since_analyze_ == kAnalyzeEvery) {
        since_analyze_ = 0;
        s->kind = Kind::kAnalyze;
        s->sql = "ANALYZE names";
        return true;
      }
      if (next_ >= w_->inserts_.size()) return false;
      const NameRow& row = w_->inserts_[next_];
      s->kind = Kind::kInsert;
      s->key = static_cast<int64_t>(next_);
      s->sql = "INSERT INTO names VALUES (" + std::to_string(row.id) + ", " +
               Literal(row.name) + ")";
      ++next_;
      ++since_analyze_;
      w_->generated_.store(next_);
      return true;
    }

   private:
    IngestMix* w_;
    size_t next_ = 0;
    int since_analyze_ = 0;
  };

  class Reader : public StmtSource {
   public:
    Reader(IngestMix* w, uint64_t seed) : w_(w), rng_(seed) {}
    std::vector<std::string> Prelude() const override {
      return {"SET LEXEQUAL_THRESHOLD = 2"};
    }
    bool Next(Stmt* s) override {
      *s = Stmt();
      s->kind = Kind::kPsiScan;
      const size_t g = w_->generated_.load();
      if (g > 0 && rng_.Bernoulli(0.3)) {
        // A recently generated insert: usually already acknowledged.
        const size_t back = rng_.Uniform(std::min<size_t>(g, 200));
        s->key = -static_cast<int64_t>(g - back);
      } else {
        s->key = static_cast<int64_t>(rng_.Uniform(w_->probes_.size()));
      }
      s->sql = "SELECT id FROM names WHERE name LexEQUAL " +
               Literal(w_->ProbeName(s->key));
      s->base_rows = static_cast<int64_t>(w_->initial_.size() + g);
      return true;
    }

   private:
    IngestMix* w_;
    mural::Rng rng_;
  };

  uint64_t seed_;
  std::string disk_path_;
  std::vector<NameRow> initial_, probes_, inserts_;
  std::unique_ptr<ByLength> initial_by_length_, inserts_by_length_;
  std::atomic<size_t> generated_{0};
  std::unordered_map<int64_t, Expected> expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& data_dir,
                                       double max_seconds) {
  if (name == "paper_single") return std::make_unique<PaperSingle>(seed);
  if (name == "lookup_mix") return std::make_unique<LookupMix>(seed);
  if (name == "ingest_mix") {
    return std::make_unique<IngestMix>(seed, data_dir, max_seconds);
  }
  return nullptr;
}

}  // namespace perfbench
