// Tests for the prediction-integrity subsystem: the CRC envelope and
// crash-safe persistence, corruption fuzzing over every serialized artefact,
// the guarded degradation chain (model -> tuning table -> default clocks),
// and drift detection / model quarantine — including the end-to-end queue
// scenario where a mid-run power skew trips the quarantine deterministically.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "synergy/common/checksum.hpp"
#include "synergy/common/envelope.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/ml/random_forest.hpp"
#include "synergy/synergy.hpp"
#include "synergy/telemetry/metrics_registry.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace sm = synergy::metrics;
namespace gs = synergy::gpusim;
namespace sw = synergy::workloads;
namespace env = synergy::common::envelope;
namespace ml = synergy::ml;

using synergy::common::crc32;
using synergy::common::megahertz;
using synergy::common::pcg32;

namespace {

std::filesystem::path temp_dir(const char* name) {
  // ctest runs each test case as its own process, possibly in parallel; a
  // per-process suffix keeps concurrent cases out of each other's directories.
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string{name} + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void write_file(const std::filesystem::path& p, const std::string& content) {
  std::ofstream out{p, std::ios::binary};
  out << content;
}

/// Apply one seeded mutation to `text`: bit-flip, truncation, or splice
/// (copy a chunk of the text over another position).
std::string mutate(const std::string& text, pcg32& rng) {
  if (text.empty()) return text;
  std::string out = text;
  const auto n = static_cast<std::uint32_t>(out.size());
  switch (rng.bounded(3)) {
    case 0: {  // bit flip
      const auto pos = rng.bounded(n);
      out[pos] = static_cast<char>(out[pos] ^ (1u << rng.bounded(8)));
      break;
    }
    case 1: {  // truncate
      out.resize(rng.bounded(n));
      break;
    }
    default: {  // splice
      const auto len = 1 + rng.bounded(std::max(1u, n / 4));
      const auto span = n > len ? n - len : 1;
      const auto src = rng.bounded(span);
      const auto dst = rng.bounded(span);
      out.replace(dst, len, text.substr(src, len));
      break;
    }
  }
  return out;
}

/// Small deterministic training set: y is a noiseless linear function, so
/// every regressor family fits it quickly.
ml::dataset tiny_dataset() {
  ml::dataset d;
  pcg32 rng{7};
  for (int i = 0; i < 64; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(0.0, 5.0);
    const double c = rng.uniform(1.0, 2.0);
    d.push(std::array{a, b, c}, 3.0 * a - 2.0 * b + c);
  }
  return d;
}

/// A regressor that reports fitted but emits a configurable pathological
/// prediction — NaN clocks must die at the rails, never reach a device.
struct broken_regressor final : ml::regressor {
  double value;
  explicit broken_regressor(double v) : value(v) {}
  void fit(const ml::matrix&, std::span<const double>) override {}
  [[nodiscard]] double predict_one(std::span<const double>) const override { return value; }
  [[nodiscard]] std::string name() const override { return "broken"; }
  [[nodiscard]] bool fitted() const override { return true; }
  [[nodiscard]] std::string serialize() const override { return "broken v1\n"; }
};

synergy::trained_models broken_models(double value) {
  synergy::trained_models m;
  m.time = std::make_unique<broken_regressor>(value);
  m.energy = std::make_unique<broken_regressor>(value);
  m.edp = std::make_unique<broken_regressor>(value);
  m.ed2p = std::make_unique<broken_regressor>(value);
  return m;
}

synergy::trainer_options quick_options() {
  synergy::trainer_options opt;
  opt.n_microbenchmarks = 24;
  opt.freq_samples = 12;
  opt.repetitions = 1;
  return opt;
}

/// One V100 model set trained once per process and shared by the
/// persistence tests (training dominates this binary's runtime otherwise).
const synergy::trained_models& shared_models() {
  static const synergy::trained_models models = [] {
    synergy::model_trainer trainer{gs::make_v100(), quick_options()};
    return trainer.train_default();
  }();
  return models;
}

/// A trained planner shared by the rails / drift tests (the second and last
/// training this binary performs).
std::shared_ptr<const synergy::frequency_planner> shared_planner() {
  static const auto planner = [] {
    synergy::model_trainer trainer{gs::make_v100(), quick_options()};
    return std::make_shared<const synergy::frequency_planner>(gs::make_v100(),
                                                              trainer.train_default());
  }();
  return planner;
}

}  // namespace

// ------------------------------------------------------------ CRC envelope ----

// The check value at compile time: crc32 must stay usable in constant
// expressions.
static_assert(crc32("123456789") == 0xCBF43926u);

TEST(Checksum, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

namespace {

/// The byte-at-a-time definition, written out here as the reference the
/// library's eight-bytes-per-step loop must agree with.
std::uint32_t crc32_bytewise(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace

TEST(Checksum, Crc32MatchesTheBytewiseDefinitionAtEveryLengthAndAlignment) {
  pcg32 rng{20261018};
  std::string buffer(1030 + 8, '\0');
  for (auto& ch : buffer) ch = static_cast<char>(rng.bounded(256));
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 1030; ++len) {
      const std::string_view view{buffer.data() + offset, len};
      ASSERT_EQ(crc32(view), crc32_bytewise(view)) << "offset " << offset << " length " << len;
    }
}

TEST(Checksum, Crc32ChainsAcrossSplits) {
  pcg32 rng{7};
  std::string data(517, '\0');
  for (auto& ch : data) ch = static_cast<char>(rng.bounded(256));
  const std::string_view all{data};
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const auto a = all.substr(0, split);
    const auto b = all.substr(split);
    ASSERT_EQ(crc32(b, crc32(a)), crc32(all)) << "split at " << split;
  }
  EXPECT_EQ(crc32("456789", crc32("123")), 0xCBF43926u);
  EXPECT_EQ(crc32_bytewise(all, 0x12345678u), crc32(all, 0x12345678u));
}

TEST(Envelope, SealOpenRoundTrip) {
  const std::string payload = "hello artefact\nline two\n";
  const auto sealed = env::seal("regressor", 3, payload);
  EXPECT_TRUE(env::looks_sealed(sealed));
  const auto opened = env::open(sealed, "regressor", 3);
  ASSERT_TRUE(opened.ok()) << opened.detail;
  EXPECT_EQ(opened.kind, "regressor");
  EXPECT_EQ(opened.version, 3u);
  EXPECT_EQ(opened.payload, payload);
}

TEST(Envelope, DetectsEveryFaultCategory) {
  const auto sealed = env::seal("tuning_table", 1, "synergy payload");

  EXPECT_EQ(env::open("garbage", "tuning_table", 1).error, env::fault::not_an_envelope);
  EXPECT_EQ(env::open(sealed, "regressor", 1).error, env::fault::kind_mismatch);
  EXPECT_EQ(env::open(env::seal("tuning_table", 9, "p"), "tuning_table", 1).error,
            env::fault::version_skew);
  // Chop payload bytes: truncation.
  EXPECT_EQ(env::open(sealed.substr(0, sealed.size() - 4), "tuning_table", 1).error,
            env::fault::truncated);
  // Surplus bytes appended (an artefact splice) are a size violation too.
  EXPECT_NE(env::open(sealed + "extra", "tuning_table", 1).error, env::fault::none);
  // Flip one payload bit: checksum.
  auto flipped = sealed;
  flipped[flipped.size() - 3] ^= 0x10;
  EXPECT_EQ(env::open(flipped, "tuning_table", 1).error, env::fault::checksum_mismatch);
}

TEST(Envelope, AtomicWriteLeavesNoTempFile) {
  const auto dir = temp_dir("synergy_atomic_write");
  const auto path = dir / "artefact.txt";
  ASSERT_TRUE(synergy::common::atomic_write_file(path, "content").ok());
  EXPECT_EQ(read_file(path), "content");
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  // Overwrite is atomic too.
  ASSERT_TRUE(synergy::common::atomic_write_file(path, "content2").ok());
  EXPECT_EQ(read_file(path), "content2");
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------- corruption fuzzing ----

TEST(CorruptionFuzz, MutatedRegressorBlobsNeverEscapeStructuredErrors) {
  const auto data = tiny_dataset();
  for (const auto algo : {ml::algorithm::linear, ml::algorithm::lasso,
                          ml::algorithm::random_forest, ml::algorithm::svr_rbf}) {
    auto model = ml::make_regressor(algo);
    model->fit(data);
    const auto blob = model->serialize();
    // Clean round-trip first, so the fuzz below is testing mutations.
    ASSERT_TRUE(ml::try_deserialize_regressor(blob).has_value()) << ml::to_string(algo);

    pcg32 rng{0xc0ffee00u + static_cast<std::uint32_t>(algo)};
    for (int i = 0; i < 200; ++i) {
      const auto bad = mutate(blob, rng);
      // Must never throw, crash, or produce an unfitted "success".
      const auto result = ml::try_deserialize_regressor(bad);
      if (result.has_value()) {
        ASSERT_NE(result.value(), nullptr);
        EXPECT_TRUE(result.value()->fitted());
      } else {
        EXPECT_FALSE(result.err().message.empty());
      }
    }
  }
}

TEST(CorruptionFuzz, MutatedTuningTablesNeverThrowFromParse) {
  synergy::tuning_table table;
  table.set_device_key("V100");
  for (int i = 0; i < 8; ++i)
    table.put("kernel_" + std::to_string(i), sm::ES_50,
              {megahertz{877}, megahertz{900.0 + i * 15.0}});
  const auto blob = table.serialize();

  pcg32 rng{0x7ab1e5u};
  for (int i = 0; i < 300; ++i) {
    const auto bad = mutate(blob, rng);
    const auto parsed = synergy::tuning_table::parse(bad);  // must not throw
    if (!parsed.header_ok) EXPECT_FALSE(parsed.diagnostics.empty());
    // Whatever survived must carry sane clock values.
    for (const auto& kernel : parsed.table.kernels()) {
      if (const auto hit = parsed.table.find(kernel, sm::ES_50)) {
        EXPECT_TRUE(std::isfinite(hit->core.value));
        EXPECT_GT(hit->core.value, 0.0);
      }
    }
  }
}

TEST(CorruptionFuzz, MutatedFeatureEnvelopesReturnErrors) {
  ml::feature_envelope fe;
  fe.fit(tiny_dataset().x);
  const auto blob = fe.serialize();
  ASSERT_TRUE(ml::feature_envelope::deserialize(blob).has_value());

  pcg32 rng{0xfea7u};
  for (int i = 0; i < 200; ++i) {
    const auto bad = mutate(blob, rng);
    const auto result = ml::feature_envelope::deserialize(bad);  // must not throw
    if (result.has_value()) {
      // A mutation that still parses must still be a coherent envelope.
      EXPECT_EQ(result.value().min().size(), result.value().max().size());
    }
  }
}

TEST(CorruptionFuzz, MutatedStoreFilesAlwaysYieldStructuredLoads) {
  const auto dir = temp_dir("synergy_store_fuzz");
  synergy::model_store store{dir};
  ASSERT_TRUE(store.save("V100", shared_models()).ok());
  const auto original = read_file(dir / "V100" / "energy.model");

  pcg32 rng{0x5107e5u};
  for (int i = 0; i < 60; ++i) {
    write_file(dir / "V100" / "energy.model", mutate(original, rng));
    const auto result = store.load("V100");  // must never throw
    if (!result.ok()) {
      EXPECT_FALSE(result.models.complete());  // all-or-nothing contract
      EXPECT_FALSE(result.summary().empty());
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CorruptionFuzz, ZeroTreeForestYieldsRejectedPredictionNotUndefinedBehavior) {
  // Regression: a spliced/truncated forest artefact can deserialize with
  // `n_trees 0` while keeping a plausible feature count. Prediction used to
  // divide by zero; it must instead return NaN so the chain's finite-value
  // rail rejects the model tier and degrades — never UB, never an escaping
  // exception.
  const std::string blob = "random_forest v1\nn_features " +
                           std::to_string(synergy::model_input_dim) + "\nn_trees 0\n";
  // Layer 1: the structured load path refuses the unfitted husk outright.
  EXPECT_FALSE(ml::try_deserialize_regressor(blob).has_value());
  // Layer 2: direct prediction on the husk is NaN, never a division by zero.
  const auto husk = ml::random_forest::deserialize(blob);
  ASSERT_NE(husk, nullptr);
  EXPECT_FALSE(husk->fitted());
  std::vector<double> probe(synergy::model_input_dim, 1.0);
  EXPECT_TRUE(std::isnan(husk->predict_one(probe)));

  // Layer 3: even when the load-time check is bypassed (an artefact that
  // degrades after validation), the planner's finite-prediction rail turns
  // the NaN into a counted tuning-table fallback. The adapter reports
  // "fitted" so the forest's prediction reaches the rails.
  struct husk_adapter final : ml::regressor {
    std::unique_ptr<ml::random_forest> forest;
    explicit husk_adapter(std::unique_ptr<ml::random_forest> f) : forest(std::move(f)) {}
    void fit(const ml::matrix&, std::span<const double>) override {}
    [[nodiscard]] double predict_one(std::span<const double> x) const override {
      return forest->predict_one(x);
    }
    [[nodiscard]] std::string name() const override { return "husk"; }
    [[nodiscard]] bool fitted() const override { return true; }
    [[nodiscard]] std::string serialize() const override { return forest->serialize(); }
  };
  synergy::trained_models m;
  m.time = std::make_unique<husk_adapter>(ml::random_forest::deserialize(blob));
  m.energy = std::make_unique<husk_adapter>(ml::random_forest::deserialize(blob));
  m.edp = std::make_unique<husk_adapter>(ml::random_forest::deserialize(blob));
  m.ed2p = std::make_unique<husk_adapter>(ml::random_forest::deserialize(blob));

  const auto spec = gs::make_v100();
  const megahertz supported = spec.core_clocks[spec.core_clocks.size() / 2];
  auto table = std::make_shared<synergy::tuning_table>();
  table->set_device_key("V100");
  table->put("mat_mul", sm::ES_50, {spec.memory_clock, supported});
  table->put("mat_mul", sm::MIN_EDP, {spec.memory_clock, supported});
  synergy::guarded_planner chained{
      spec, std::make_shared<synergy::frequency_planner>(spec, std::move(m)), table};

  const auto& features = sw::find("mat_mul").info.features;
  for (const auto target : {sm::ES_50, sm::MIN_EDP}) {
    const auto d = chained.plan("mat_mul", features, target);
    EXPECT_EQ(d.tier, synergy::plan_tier::tuning_table);
    EXPECT_EQ(d.config.core.value, supported.value);
    EXPECT_NE(d.reason.find("non-finite"), std::string::npos) << d.reason;
  }
  EXPECT_EQ(chained.prediction_rejections(), 2u);
}

// ------------------------------------------------------------- model store ----

struct model_store_fixture : ::testing::Test {
  std::filesystem::path dir = temp_dir("synergy_guardrail_store");
  synergy::model_store store{dir};
  const synergy::trained_models& models = shared_models();

  void SetUp() override { ASSERT_TRUE(store.save("V100", models).ok()); }
  void TearDown() override { std::filesystem::remove_all(dir); }

  [[nodiscard]] synergy::model_file_status status_of(const synergy::load_result& r,
                                                     const std::string& file) const {
    for (const auto& d : r.files)
      if (d.file == file) return d.status;
    return synergy::model_file_status::ok;
  }
};

TEST_F(model_store_fixture, SaveIsSealedAndLeavesNoTempFiles) {
  for (const char* file : {"time.model", "energy.model", "edp.model", "ed2p.model",
                           "features.envelope"}) {
    const auto path = dir / "V100" / file;
    ASSERT_TRUE(std::filesystem::exists(path)) << file;
    EXPECT_TRUE(env::looks_sealed(read_file(path))) << file;
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp")) << file;
  }
}

TEST_F(model_store_fixture, PartialSetReportsMissingFileWithoutThrowing) {
  std::filesystem::remove(dir / "V100" / "edp.model");
  const auto result = store.load("V100");
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.corrupt());  // missing is absence, not damage
  EXPECT_EQ(status_of(result, "edp.model"), synergy::model_file_status::missing);
  EXPECT_EQ(status_of(result, "time.model"), synergy::model_file_status::ok);
  EXPECT_FALSE(result.models.complete());  // no half-parsed set handed out
}

TEST_F(model_store_fixture, CorruptFileDetectedByChecksum) {
  const auto path = dir / "V100" / "energy.model";
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;  // one flipped bit anywhere in the payload
  write_file(path, bytes);

  const auto result = store.load("V100");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.corrupt());
  EXPECT_EQ(status_of(result, "energy.model"), synergy::model_file_status::corrupt);
  EXPECT_FALSE(result.models.complete());
}

TEST_F(model_store_fixture, TruncatedFileDetected) {
  const auto path = dir / "V100" / "time.model";
  const auto bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() / 3));

  const auto result = store.load("V100");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.corrupt());
  EXPECT_EQ(status_of(result, "time.model"), synergy::model_file_status::corrupt);
}

TEST_F(model_store_fixture, VersionSkewDistinguishedFromCorruption) {
  // Reseal one artefact as a future payload version this build cannot read.
  write_file(dir / "V100" / "ed2p.model", env::seal("regressor", 99, "future format"));
  const auto result = store.load("V100");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.corrupt());
  EXPECT_EQ(status_of(result, "ed2p.model"), synergy::model_file_status::version_skew);
}

TEST_F(model_store_fixture, LegacyUnsealedFilesLoadWithDiagnostic) {
  // Rewrite every artefact as the pre-envelope bare format.
  write_file(dir / "V100" / "time.model", models.time->serialize());
  write_file(dir / "V100" / "energy.model", models.energy->serialize());
  write_file(dir / "V100" / "edp.model", models.edp->serialize());
  write_file(dir / "V100" / "ed2p.model", models.ed2p->serialize());
  std::filesystem::remove(dir / "V100" / "features.envelope");

  const auto result = store.load("V100");
  EXPECT_TRUE(result.ok()) << result.summary();  // legacy still loads...
  EXPECT_EQ(status_of(result, "time.model"), synergy::model_file_status::legacy);
  EXPECT_FALSE(result.models.envelope.fitted());  // ...without the OOD rail
}

TEST_F(model_store_fixture, ValidateMatchesLoadWithoutKeepingModels) {
  const auto clean = store.validate("V100");
  EXPECT_TRUE(clean.ok());
  EXPECT_FALSE(clean.models.complete());  // validation does not hand out models

  auto bytes = read_file(dir / "V100" / "edp.model");
  bytes[bytes.size() - 1] ^= 0x40;
  write_file(dir / "V100" / "edp.model", bytes);
  EXPECT_TRUE(store.validate("V100").corrupt());
}

// ------------------------------------------------------------- tuning table ----

TEST(TuningTableHardening, ParseSkipsMalformedLinesWithDiagnostics) {
  const std::string text =
      "synergy_tuning v1\n"
      "device V100\n"
      "good_kernel ES_50 877 1110\n"       // line 3: fine
      "bad_core ES_50 877 xyz\n"           // line 4: non-numeric core
      "short_line ES_50 877\n"             // line 5: missing field
      "good_kernel ES_50 877 900\n"        // line 6: duplicate key
      "bad_target NOT_A_TARGET 877 900\n"  // line 7: unknown target
      "nan_mem ES_50 nan 900\n"            // line 8: non-finite clock
      "trailing ES_50 877 900 extra\n"     // line 9: trailing field
      "second_good MIN_EDP 877 1050\n";    // line 10: fine
  const auto result = synergy::tuning_table::parse(text);
  EXPECT_TRUE(result.header_ok);
  EXPECT_EQ(result.parsed, 2u);
  EXPECT_EQ(result.skipped, 6u);
  ASSERT_EQ(result.diagnostics.size(), 6u);
  EXPECT_NE(result.diagnostics[0].find("line 4"), std::string::npos);
  EXPECT_NE(result.diagnostics[0].find("xyz"), std::string::npos);
  EXPECT_NE(result.diagnostics[2].find("duplicate"), std::string::npos);
  // Duplicate keeps the first value.
  EXPECT_EQ(result.table.find("good_kernel", sm::ES_50)->core.value, 1110.0);
  EXPECT_TRUE(result.table.find("second_good", sm::MIN_EDP).has_value());
}

TEST(TuningTableHardening, DeserializeThrowsCleanErrorNamingTheLine) {
  const std::string text =
      "synergy_tuning v1\n"
      "device V100\n"
      "k ES_50 877 1110\n"
      "k2 ES_50 877 bogus\n";
  try {
    (void)synergy::tuning_table::deserialize(text);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos) << e.what();
  }
}

TEST(TuningTableHardening, SealedSaveLoadRoundTripAndCorruptionDetection) {
  const auto dir = temp_dir("synergy_tuning_files");
  const auto path = dir / "v100.tuning";

  synergy::tuning_table table;
  table.set_device_key("V100");
  table.put("mat_mul", sm::ES_50, {megahertz{877}, megahertz{1110}});
  ASSERT_TRUE(synergy::save_tuning_table(path, table).ok());
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));

  auto loaded = synergy::load_tuning_table(path);
  ASSERT_TRUE(loaded.ok()) << loaded.summary();
  EXPECT_TRUE(loaded.sealed);
  EXPECT_TRUE(loaded.diagnostics.empty());
  EXPECT_EQ(loaded.table->find("mat_mul", sm::ES_50)->core.value, 1110.0);

  // One flipped bit: structured failure, never an exception.
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x02;
  write_file(path, bytes);
  const auto corrupt = synergy::load_tuning_table(path);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_FALSE(corrupt.diagnostics.empty());

  // Legacy bare file: accepted, with a re-save recommendation.
  write_file(path, table.serialize());
  const auto legacy = synergy::load_tuning_table(path);
  ASSERT_TRUE(legacy.ok());
  EXPECT_FALSE(legacy.sealed);
  EXPECT_FALSE(legacy.diagnostics.empty());

  EXPECT_FALSE(synergy::load_tuning_table(dir / "absent.tuning").ok());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------- prediction rails ----

TEST(PredictionRails, PathologicalPredictionsNeverBecomeClocks) {
  const auto spec = gs::make_v100();
  const auto& features = sw::find("mat_mul").info.features;
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::infinity(), -1.0, 0.0}) {
    synergy::frequency_planner planner{spec, broken_models(poison)};
    // Time/energy predictions must be finite AND positive.
    for (const auto& target : {sm::ES_50, sm::PL_50}) {
      const auto guarded = planner.plan_guarded(features, target);
      EXPECT_FALSE(guarded.usable()) << "poison " << poison;
      EXPECT_FALSE(guarded.reason.empty());
    }
    // EDP/ED2P models predict in log space, where negative values are
    // legitimate — only non-finite output marks a broken model there; any
    // surviving plan must still carry a supported clock.
    for (const auto& target : {sm::MIN_EDP, sm::MIN_ED2P}) {
      const auto guarded = planner.plan_guarded(features, target);
      if (std::isfinite(poison)) {
        ASSERT_TRUE(guarded.usable()) << guarded.reason;
        EXPECT_TRUE(spec.supports_core_clock(guarded.config->core));
      } else {
        EXPECT_FALSE(guarded.usable()) << "poison " << poison;
        EXPECT_FALSE(guarded.reason.empty());
      }
    }
    EXPECT_FALSE(planner.predicted_energy(features, megahertz{1110}).has_value());
  }
}

TEST(PredictionRails, OutOfDistributionFeaturesAreFlagged) {
  const auto& planner = *shared_planner();
  ASSERT_TRUE(planner.models().envelope.fitted());

  // In-distribution: a real suite kernel plans through the model tier.
  const auto good = planner.plan_guarded(sw::find("mat_mul").info.features, sm::ES_50);
  EXPECT_TRUE(good.usable()) << good.reason;
  EXPECT_FALSE(good.ood);

  // A feature vector far outside anything the trainer generated.
  gs::static_features alien;
  alien.float_add = 1e9;
  alien.gl_access = 1e9;
  alien.sf = 1e9;
  const auto flagged = planner.plan_guarded(alien, sm::ES_50);
  EXPECT_TRUE(flagged.ood);
  EXPECT_FALSE(flagged.usable());
  EXPECT_NE(flagged.reason.find("envelope"), std::string::npos);
}

// --------------------------------------------------------- reference planner ----

namespace {

/// The rail-free planner written out longhand: one predict_one per clock.
/// MIN_EDP/MIN_ED2P take the strict argmin of their dedicated model from
/// the default clock; every other target selects on the time/energy
/// predictions floored at zero.
synergy::common::frequency_config reference_plan(const synergy::frequency_planner& planner,
                                                 const gs::static_features& k,
                                                 const sm::target& target) {
  const auto& spec = planner.spec();
  const auto& models = planner.models();
  if (target.k == sm::target::kind::min_edp || target.k == sm::target::kind::min_ed2p) {
    const ml::regressor& model =
        target.k == sm::target::kind::min_edp ? *models.edp : *models.ed2p;
    megahertz best = spec.default_core_clock();
    double best_v = std::numeric_limits<double>::infinity();
    for (const megahertz f : spec.core_clocks) {
      const double v = model.predict_one(synergy::model_input(k, f));
      if (v < best_v) {
        best_v = v;
        best = f;
      }
    }
    return {spec.memory_clock, best};
  }
  sm::characterization c;
  for (const megahertz f : spec.core_clocks) {
    const auto x = synergy::model_input(k, f);
    c.points.push_back({{spec.memory_clock, f},
                        std::max(0.0, models.time->predict_one(x)),
                        std::max(0.0, models.energy->predict_one(x))});
  }
  c.default_index = spec.default_clock_index;
  return c.points[sm::select(c, target)].config;
}

/// The guarded planner written out longhand: the OOD rail at the table
/// endpoints and the default clock, then the prediction rails in clock order
/// (first broken rail wins), then the clamp rail.
synergy::guarded_plan reference_plan_guarded(const synergy::frequency_planner& planner,
                                             const gs::static_features& k,
                                             const sm::target& target) {
  const auto& spec = planner.spec();
  const auto& models = planner.models();
  synergy::guarded_plan out;
  if (models.envelope.fitted()) {
    for (const megahertz f :
         {spec.min_core_clock(), spec.default_core_clock(), spec.max_core_clock()}) {
      if (!models.envelope.contains(synergy::model_input(k, f))) {
        out.ood = true;
        out.reason = "feature vector outside the training envelope at " +
                     std::to_string(f.value) + " MHz";
        return out;
      }
    }
  }
  for (const megahertz f : spec.core_clocks) {
    const auto x = synergy::model_input(k, f);
    if (target.k == sm::target::kind::min_edp || target.k == sm::target::kind::min_ed2p) {
      const ml::regressor& model =
          target.k == sm::target::kind::min_edp ? *models.edp : *models.ed2p;
      if (!std::isfinite(model.predict_one(x))) {
        out.reason = "non-finite " + target.to_string() + " prediction at " +
                     std::to_string(f.value) + " MHz";
        return out;
      }
      continue;
    }
    const double t = models.time->predict_one(x);
    const double e = models.energy->predict_one(x);
    if (!std::isfinite(t) || !std::isfinite(e)) {
      out.reason = "non-finite time/energy prediction at " + std::to_string(f.value) + " MHz";
      return out;
    }
    if (t <= 0.0 || e <= 0.0) {
      out.reason = "non-positive time/energy prediction at " + std::to_string(f.value) + " MHz";
      return out;
    }
  }
  auto config = reference_plan(planner, k, target);
  if (!spec.supports_core_clock(config.core)) {
    config.core = spec.nearest_core_clock(config.core);
    out.clamped = true;
  }
  if (!spec.supports_memory_clock(config.memory)) {
    config.memory = spec.memory_clock;
    out.clamped = true;
  }
  out.config = config;
  return out;
}

void expect_same_guarded(const synergy::guarded_plan& got, const synergy::guarded_plan& want,
                         const std::string& what) {
  ASSERT_EQ(got.usable(), want.usable()) << what << ": " << got.reason;
  if (want.usable()) {
    EXPECT_EQ(got.config->core.value, want.config->core.value) << what;
    EXPECT_EQ(got.config->memory.value, want.config->memory.value) << what;
  }
  EXPECT_EQ(got.ood, want.ood) << what;
  EXPECT_EQ(got.clamped, want.clamped) << what;
  EXPECT_EQ(got.reason, want.reason) << what;
}

/// plan(), plan_guarded(), and one plan_guarded_batch() call over all of
/// `queries` must each agree with the reference.
void expect_matches_reference(const synergy::frequency_planner& planner,
                              const std::vector<synergy::plan_request>& queries) {
  const auto batch = planner.plan_guarded_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    const std::string what = q.kernel + "/" + q.target.to_string();
    const auto want_plan = reference_plan(planner, q.features, q.target);
    const auto got_plan = planner.plan(q.features, q.target);
    EXPECT_EQ(got_plan.core.value, want_plan.core.value) << what << " plan";
    EXPECT_EQ(got_plan.memory.value, want_plan.memory.value) << what << " plan";
    const auto want = reference_plan_guarded(planner, q.features, q.target);
    expect_same_guarded(planner.plan_guarded(q.features, q.target), want, what + " single");
    expect_same_guarded(batch[i], want, what + " batch");
  }
}

/// Every suite kernel crossed with the paper's ten objectives.
std::vector<synergy::plan_request> suite_queries() {
  std::vector<synergy::plan_request> queries;
  for (const auto& b : sw::suite())
    for (const auto& target : sm::paper_objectives())
      queries.push_back({b.info.name, b.info.features, target});
  return queries;
}

}  // namespace

TEST(PlannerReference, TrainedModelsMatchOnSuiteKernelsAndPaperObjectives) {
  expect_matches_reference(*shared_planner(), suite_queries());
}

TEST(PlannerReference, PoisonedModelsMatchRailForRail) {
  const auto spec = gs::make_v100();
  for (const double poison :
       {std::numeric_limits<double>::quiet_NaN(), -std::numeric_limits<double>::infinity(),
        -1.0, 0.0, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(poison);
    const synergy::frequency_planner planner{spec, broken_models(poison)};
    expect_matches_reference(planner, suite_queries());
  }
}

TEST(PlannerReference, OutOfDistributionQueriesMatchInsideABatch) {
  gs::static_features alien;
  alien.float_add = 1e9;
  alien.gl_access = 1e9;
  alien.sf = 1e9;
  ASSERT_TRUE(shared_planner()->plan_guarded(alien, sm::ES_50).ood);
  // The alien rides mid-batch: its rejection must not disturb its neighbours.
  auto queries = suite_queries();
  for (const auto& target : sm::paper_objectives())
    queries.insert(queries.begin() + static_cast<std::ptrdiff_t>(queries.size() / 2),
                   {"alien", alien, target});
  expect_matches_reference(*shared_planner(), queries);
}

// --------------------------------------------------------- degradation chain ----

TEST(DegradationChain, FallsThroughModelTableDefaultDeterministically) {
  const auto spec = gs::make_v100();
  const auto& features = sw::find("mat_mul").info.features;

  // No tiers at all: default clocks.
  synergy::guarded_planner bare{spec};
  const auto d0 = bare.plan("mat_mul", features, sm::ES_50);
  EXPECT_EQ(d0.tier, synergy::plan_tier::default_clocks);
  EXPECT_EQ(d0.config.core.value, spec.default_config().core.value);
  EXPECT_EQ(bare.default_fallbacks(), 1u);

  // Broken model + table: the table tier answers.
  const megahertz supported = spec.core_clocks[spec.core_clocks.size() / 2];
  auto table = std::make_shared<synergy::tuning_table>();
  table->set_device_key("V100");
  table->put("mat_mul", sm::ES_50, {spec.memory_clock, supported});
  auto broken = std::make_shared<synergy::frequency_planner>(
      spec, broken_models(std::numeric_limits<double>::quiet_NaN()));
  synergy::guarded_planner chained{spec, broken, table};
  const auto d1 = chained.plan("mat_mul", features, sm::ES_50);
  EXPECT_EQ(d1.tier, synergy::plan_tier::tuning_table);
  EXPECT_EQ(d1.config.core.value, supported.value);
  EXPECT_EQ(chained.prediction_rejections(), 1u);
  EXPECT_EQ(chained.table_fallbacks(), 1u);

  // Kernel absent from the table: all the way down to default clocks.
  const auto d2 = chained.plan("unknown_kernel", features, sm::ES_50);
  EXPECT_EQ(d2.tier, synergy::plan_tier::default_clocks);
  EXPECT_EQ(chained.default_fallbacks(), 1u);

  // A stale artefact carrying unsupported clocks is snapped onto the table.
  table->put("stale", sm::ES_50, {megahertz{877}, megahertz{123.0}});
  const auto d3 = chained.plan("stale", features, sm::ES_50);
  EXPECT_EQ(d3.tier, synergy::plan_tier::tuning_table);
  EXPECT_TRUE(d3.clamped);
  EXPECT_TRUE(spec.supports_core_clock(d3.config.core));

  // Determinism: the same request yields the identical decision.
  const auto d4 = chained.plan("mat_mul", features, sm::ES_50);
  EXPECT_EQ(d4.tier, d1.tier);
  EXPECT_EQ(d4.config.core.value, d1.config.core.value);
}

#if SYNERGY_TELEMETRY_ENABLED
TEST(DegradationChain, FallbacksAreCountedInMetricsRegistry) {
  auto& reg = synergy::telemetry::metrics_registry::instance();
  const double table_before = reg.get_counter("planner.fallback_table").value();
  const double default_before = reg.get_counter("planner.fallback_default").value();
  const double clamped_before = reg.get_counter("planner.clock_clamped").value();

  const auto spec = gs::make_v100();
  auto table = std::make_shared<synergy::tuning_table>();
  table->put("mat_mul", sm::ES_50, {megahertz{877}, megahertz{1110}});
  synergy::guarded_planner chained{spec, nullptr, table};
  const auto d_table = chained.plan("mat_mul", sw::find("mat_mul").info.features, sm::ES_50);
  const auto d_default = chained.plan("absent", sw::find("mat_mul").info.features, sm::ES_50);

  EXPECT_EQ(reg.get_counter("planner.fallback_table").value(), table_before + 1.0);
  EXPECT_EQ(reg.get_counter("planner.fallback_default").value(), default_before + 1.0);

  // Clamps are counted on the table tier as on the model tier: a stale entry
  // whose memory clock alone is unsupported is snapped and counted too.
  const megahertz mid = spec.core_clocks[spec.core_clocks.size() / 2];
  table->put("memory_only", sm::ES_50, {megahertz{1000}, mid});
  const auto d_memory = chained.plan("memory_only", sw::find("mat_mul").info.features, sm::ES_50);
  EXPECT_TRUE(d_memory.clamped);
  EXPECT_EQ(d_memory.config.memory.value, spec.memory_clock.value);
  EXPECT_EQ(d_memory.config.core.value, mid.value);
  const int clamped = int{d_table.clamped} + int{d_default.clamped} + int{d_memory.clamped};
  EXPECT_EQ(reg.get_counter("planner.clock_clamped").value(), clamped_before + clamped);
}
#endif

// ------------------------------------------------------------- drift monitor ----

TEST(DriftMonitor, CalibratesPerKernelAndStaysQuietOnStableRatios) {
  synergy::drift_monitor mon;
  // Model predicts normalised values, measurements are absolute — a constant
  // ratio per kernel is a healthy model regardless of the absolute scale.
  for (int i = 0; i < 64; ++i) {
    mon.observe("a", 2.0, 2.0e6);
    mon.observe("b", 5.0, 1.0e3);
  }
  EXPECT_EQ(mon.samples(), 128u);
  EXPECT_LT(mon.rolling_error(), 1e-9);
  EXPECT_FALSE(mon.quarantined());
}

TEST(DriftMonitor, QuarantinesOnSustainedDriftAndLatches) {
  synergy::drift_options opt;
  opt.window = 16;
  opt.min_samples = 8;
  opt.threshold = 0.25;
  synergy::drift_monitor mon{opt};
  for (int i = 0; i < 16; ++i) mon.observe("k", 1.0, 100.0);  // calibrated, stable
  ASSERT_FALSE(mon.quarantined());
  for (int i = 0; i < 16 && !mon.quarantined(); ++i)
    mon.observe("k", 1.0, 160.0);  // the board drifted 60%
  EXPECT_TRUE(mon.quarantined());
  EXPECT_GT(mon.rolling_error(), opt.threshold);
  EXPECT_NE(mon.quarantine_reason().find("threshold"), std::string::npos);

  // Latched: healthy samples afterwards do not lift it...
  for (int i = 0; i < 64; ++i) mon.observe("k", 1.0, 100.0);
  EXPECT_TRUE(mon.quarantined());
  // ...only an explicit reset (retrain installed) does.
  mon.reset();
  EXPECT_FALSE(mon.quarantined());
  EXPECT_EQ(mon.samples(), 0u);
}

TEST(DriftMonitor, ResetRecalibratesPerKernelScales) {
  // Regression: reset() must clear the per-kernel scale map along with the
  // rolling window. A retrained model predicts on a different absolute scale
  // than its predecessor; recalibrating against stale scales would misread
  // the fresh model as drifted and re-quarantine it immediately.
  synergy::drift_options opt;
  opt.window = 16;
  opt.min_samples = 8;
  opt.threshold = 0.25;
  synergy::drift_monitor mon{opt};
  for (int i = 0; i < 16; ++i) mon.observe("k", 1.0, 100.0);
  ASSERT_FALSE(mon.quarantined());

  mon.reset();
  // Same kernel, very different measured/predicted ratio: the first sample
  // after a reset must calibrate a fresh scale, so a stable-but-shifted
  // ratio stays quiet. With a stale scale these samples would read as 60%
  // error and trip the threshold.
  for (int i = 0; i < 16; ++i) mon.observe("k", 1.0, 160.0);
  EXPECT_LT(mon.rolling_error(), 1e-9);
  EXPECT_FALSE(mon.quarantined());
}

TEST(DriftMonitor, RejectsInvalidPairsWithoutPoisoningTheStatistic) {
  synergy::drift_monitor mon;
  mon.observe("k", 1.0, 10.0);
  mon.observe("k", std::numeric_limits<double>::quiet_NaN(), 10.0);
  mon.observe("k", 1.0, -5.0);
  mon.observe("k", 0.0, 10.0);
  EXPECT_EQ(mon.rejected_samples(), 3u);
  EXPECT_EQ(mon.samples(), 1u);
  EXPECT_LT(mon.rolling_error(), 1e-12);
  EXPECT_FALSE(mon.quarantined());
}

// --------------------------------------------- end-to-end drift quarantine ----

namespace {

struct drift_run_outcome {
  double total_energy{0.0};
  double rolling_error{0.0};
  std::size_t samples{0};
  std::size_t default_fallbacks{0};
  bool quarantined{false};
};

/// The acceptance scenario: train, deploy, run the suite; then skew the
/// board's power model mid-run (ageing / cooling failure) and keep running.
drift_run_outcome run_drift_scenario(
    const std::shared_ptr<const synergy::frequency_planner>& planner, double skew) {
  simsycl::device dev{gs::make_v100()};
  auto ctx = std::make_shared<synergy::context>(std::vector<simsycl::device>{dev});
  synergy::queue q{dev, ctx};
  synergy::drift_options opt;
  opt.window = 32;
  opt.min_samples = 8;
  opt.threshold = 0.25;
  q.set_planner(planner, opt);
  q.set_target(sm::ES_50);

  // Healthy phase: two suite passes calibrate the per-kernel scales.
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& b : sw::suite()) b.run(q);

  // The board's power behaviour drifts mid-run.
  dev.board()->set_power_skew(skew);
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& b : sw::suite()) b.run(q);

  drift_run_outcome out;
  for (const auto& s : q.samples()) out.total_energy += s.energy_j;
  out.rolling_error = q.guard()->drift().rolling_error();
  out.samples = q.guard()->drift().samples();
  out.default_fallbacks = q.guard()->default_fallbacks();
  out.quarantined = q.model_quarantined();
  return out;
}

}  // namespace

TEST(DriftQuarantine, PowerSkewMidRunTripsQuarantineAndTierSwitch) {
  const auto planner = shared_planner();

  // A stable board never quarantines a good model set.
  const auto healthy = run_drift_scenario(planner, 1.0);
  EXPECT_FALSE(healthy.quarantined);
  EXPECT_LT(healthy.rolling_error, 0.25);

  // A 60% power skew must cross the 25% threshold, quarantine the models,
  // and switch post-trip resolutions to the default-clock tier (this queue
  // has no tuning table installed).
  const auto drifted = run_drift_scenario(planner, 1.6);
  EXPECT_TRUE(drifted.quarantined);
  EXPECT_GT(drifted.rolling_error, 0.25);
  EXPECT_GT(drifted.default_fallbacks, healthy.default_fallbacks);

  // Deterministic degradation: the identical scenario reproduces the run
  // byte-identically — same energies, same trip point, same tier switches.
  const auto replay = run_drift_scenario(planner, 1.6);
  EXPECT_EQ(drifted.quarantined, replay.quarantined);
  EXPECT_EQ(drifted.samples, replay.samples);
  EXPECT_EQ(drifted.default_fallbacks, replay.default_fallbacks);
  EXPECT_DOUBLE_EQ(drifted.total_energy, replay.total_energy);
  EXPECT_DOUBLE_EQ(drifted.rolling_error, replay.rolling_error);
}

TEST(DriftQuarantine, QuarantineLatchReArmsAfterReset) {
  const auto planner = shared_planner();
  simsycl::device dev{gs::make_v100()};
  auto ctx = std::make_shared<synergy::context>(std::vector<simsycl::device>{dev});
  synergy::queue q{dev, ctx};
  synergy::drift_options opt;
  opt.window = 32;
  opt.min_samples = 8;
  opt.threshold = 0.25;
  q.set_planner(planner, opt);
  q.set_target(sm::ES_50);

  for (int pass = 0; pass < 2; ++pass)
    for (const auto& b : sw::suite()) b.run(q);
  ASSERT_FALSE(q.model_quarantined());

  // First drift episode: trip, cache flush, fallback tier takes over.
  dev.board()->set_power_skew(1.6);
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& b : sw::suite()) b.run(q);
  ASSERT_TRUE(q.model_quarantined());
  const auto first_episode_fallbacks = q.guard()->default_fallbacks();
  EXPECT_GT(first_episode_fallbacks, 0u);

  // "Retrained and redeployed": lift the quarantine. The monitor
  // recalibrates against the still-skewed but now stable board, so the
  // model tier resumes serving plans.
  q.reset_model_quarantine();
  EXPECT_FALSE(q.model_quarantined());
  const auto model_plans_before = q.guard()->model_plans();
  for (const auto& b : sw::suite()) b.run(q);
  EXPECT_FALSE(q.model_quarantined());
  EXPECT_GT(q.guard()->model_plans(), model_plans_before);

  // Regression: the one-shot quarantine latch must re-arm once the
  // quarantine lifts. A second drift episode has to flush the plan cache
  // again and push submissions onto the fallback tier — with a stuck latch
  // the stale cached model-tier clocks would keep being served.
  dev.board()->set_power_skew(2.6);
  for (int pass = 0; pass < 2; ++pass)
    for (const auto& b : sw::suite()) b.run(q);
  ASSERT_TRUE(q.model_quarantined());
  EXPECT_GT(q.guard()->default_fallbacks(), first_episode_fallbacks);
  // Post-trip submissions really run at the default-clock tier, not at a
  // cached model-tier plan.
  const auto& last = q.samples().back();
  EXPECT_EQ(last.config.core.value, gs::make_v100().default_core_clock().value);
}

TEST(DriftQuarantine, QueueKeepsWorkingWhenTuningTableTierTakesOver) {
  // With a tuning table installed, a broken model set degrades to the
  // compiled artefact (not default clocks) for kernels the table covers.
  const auto spec = gs::make_v100();
  synergy::features::kernel_registry registry;
  sw::register_all(registry);
  auto table = std::make_shared<synergy::tuning_table>(
      synergy::compile_tuning_table(registry, {sm::ES_50}, *shared_planner(), "V100"));

  simsycl::device dev{gs::make_v100()};
  auto ctx = std::make_shared<synergy::context>(std::vector<simsycl::device>{dev});
  synergy::queue q{dev, ctx};
  auto broken = std::make_shared<synergy::frequency_planner>(
      spec, broken_models(std::numeric_limits<double>::quiet_NaN()));
  q.set_planner(broken);
  q.set_tuning_table(table);
  q.set_target(sm::ES_50);

  for (const auto& b : sw::suite()) b.run(q);
  // Every submission resolved through the compiled artefact; nothing threw,
  // nothing ran at a NaN clock.
  EXPECT_EQ(q.samples().size(), sw::suite().size());
  for (const auto& s : q.samples()) {
    EXPECT_TRUE(std::isfinite(s.config.core.value));
    EXPECT_GT(s.config.core.value, 0.0);
  }
  ASSERT_NE(q.guard(), nullptr);
  EXPECT_EQ(q.guard()->model_plans(), 0u);
}
