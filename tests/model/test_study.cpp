#include "model/study.hpp"

#include "model/theoretical.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace lassm::model {
namespace {

StudyConfig tiny_config() {
  StudyConfig cfg;
  cfg.scale = 0.01;  // ~140 contigs at k=21, minimum 50 elsewhere
  cfg.ks = {21, 77};
  return cfg;
}

TEST(Study, RunsFullGrid) {
  const StudyResults r = run_study(tiny_config());
  EXPECT_EQ(r.devices.size(), 3U);
  EXPECT_EQ(r.cells.size(), 6U);  // 3 devices x 2 ks
  for (const auto& c : r.cells) {
    EXPECT_GT(c.time_s, 0.0);
    EXPECT_GT(c.gintops, 0.0);
    EXPECT_GT(c.intensity, 0.0);
    EXPECT_GT(c.hbm_gbytes, 0.0);
    EXPECT_GE(c.arch_eff, 0.0);
    EXPECT_LE(c.arch_eff, 1.0);
    EXPECT_GE(c.alg_eff, 0.0);
    EXPECT_LE(c.alg_eff, 1.0);
    EXPECT_NEAR(c.theoretical_ii, theoretical_ii(c.k).ii, 1e-12);
  }
}

TEST(Study, CellLookup) {
  const StudyResults r = run_study(tiny_config());
  const StudyCell& c = r.cell(simt::Vendor::kAmd, 77);
  EXPECT_EQ(c.vendor, simt::Vendor::kAmd);
  EXPECT_EQ(c.k, 77U);
  EXPECT_EQ(c.pm, simt::ProgrammingModel::kHip);
  EXPECT_THROW(r.cell(simt::Vendor::kAmd, 99), std::out_of_range);
}

TEST(Study, Deterministic) {
  const StudyResults a = run_study(tiny_config());
  const StudyResults b = run_study(tiny_config());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cells[i].time_s, b.cells[i].time_s);
    EXPECT_EQ(a.cells[i].intops, b.cells[i].intops);
  }
}

TEST(Study, EfficiencyMatricesShape) {
  const StudyResults r = run_study(tiny_config());
  const auto arch = r.arch_eff_matrix();
  const auto alg = r.alg_eff_matrix();
  ASSERT_EQ(arch.size(), 2U);  // datasets
  ASSERT_EQ(arch[0].size(), 3U);  // devices
  ASSERT_EQ(alg.size(), 2U);
  for (const auto& row : arch) {
    for (double e : row) {
      EXPECT_GT(e, 0.0);
      EXPECT_LE(e, 1.0);
    }
  }
}

TEST(Study, ProgressLogging) {
  std::ostringstream log;
  run_study(tiny_config(), &log);
  EXPECT_NE(log.str().find("generated dataset k=21"), std::string::npos);
  EXPECT_NE(log.str().find("NVIDIA A100"), std::string::npos);
}

TEST(Study, ConfigFromEnv) {
  ::setenv("LASSM_STUDY_SCALE", "0.5", 1);
  ::setenv("LASSM_STUDY_SEED", "123", 1);
  const StudyConfig cfg = study_config_from_env();
  EXPECT_DOUBLE_EQ(cfg.scale, 0.5);
  EXPECT_EQ(cfg.seed, 123U);
  ::setenv("LASSM_STUDY_SCALE", "7.5", 1);  // out of range: ignored
  EXPECT_DOUBLE_EQ(study_config_from_env().scale, StudyConfig{}.scale);
  ::unsetenv("LASSM_STUDY_SCALE");
  ::unsetenv("LASSM_STUDY_SEED");
}

/// Text form of a dataset (workload::save_dataset): equal strings mean the
/// same contigs, reads, read-to-contig mapping and k.
std::string dataset_text(const core::AssemblyInput& in) {
  std::ostringstream os;
  workload::save_dataset(os, in);
  return os.str();
}

TEST(StudyDataset, TableIICountsAtDefaultScale) {
  const StudyConfig cfg;
  struct Row {
    std::uint32_t k, contigs, reads;
  };
  for (const Row& row : {Row{21, 2839, 14832}, Row{33, 879, 4084},
                         Row{55, 664, 2632}, Row{77, 509, 1568}}) {
    const core::AssemblyInput in = study_dataset(row.k, cfg.scale, cfg.seed);
    EXPECT_EQ(in.kmer_len, row.k);
    EXPECT_EQ(in.contigs.size(), row.contigs) << "k=" << row.k;
    EXPECT_EQ(in.reads.size(), row.reads) << "k=" << row.k;
  }
}

TEST(StudyDataset, FloorsHoldAtTinyScale) {
  for (std::uint32_t k : workload::kTable2Ks) {
    const core::AssemblyInput in = study_dataset(k, 1e-4, 7);
    EXPECT_EQ(in.contigs.size(), 50U) << "k=" << k;
    EXPECT_EQ(in.reads.size(), 100U) << "k=" << k;
  }
}

TEST(StudyDataset, RunStudyKeepsTheDatasetsItRan) {
  const StudyConfig cfg = tiny_config();
  const StudyResults r = run_study(cfg);
  ASSERT_EQ(r.datasets.size(), cfg.ks.size());
  for (std::size_t i = 0; i < cfg.ks.size(); ++i) {
    EXPECT_EQ(dataset_text(r.datasets[i]),
              dataset_text(study_dataset(cfg.ks[i], cfg.scale, cfg.seed)))
        << "k=" << cfg.ks[i];
  }
}

TEST(StudyCellTest, SingleCellAblationEntryPoint) {
  workload::DatasetParams p = workload::table2_params(21);
  p.num_contigs = 50;
  p.num_reads = 260;
  const auto input = workload::generate_dataset(p, 1);
  // Cross-model: run the HIP protocol on the NVIDIA device model.
  const StudyCell c = run_cell(simt::DeviceSpec::a100(),
                               simt::ProgrammingModel::kHip, input, {});
  EXPECT_EQ(c.pm, simt::ProgrammingModel::kHip);
  EXPECT_EQ(c.vendor, simt::Vendor::kNvidia);
  EXPECT_GT(c.time_s, 0.0);
}

}  // namespace
}  // namespace lassm::model
