// Dataset utility mirroring the artifact's workflow: generate Table II-
// shaped local-assembly inputs, save/load them in the text format that
// stands in for `localassm_extend_7-<k>.dat`, inspect their
// characteristics, and run one device over a file.
//
//   ./dataset_tool gen <k> <scale> <out.dat>     generate a dataset
//   ./dataset_tool stat <in.dat>                 print Table II row
//   ./dataset_tool run <in.dat> [device]   assemble + report (any zoo slug)

#include <cstring>
#include <fstream>
#include <iostream>

#include "core/assembler.hpp"
#include "model/ascii_plot.hpp"
#include "model/study.hpp"
#include "workload/dataset.hpp"

namespace {

int usage() {
  std::cerr << "usage:\n"
               "  dataset_tool gen <k> <scale> <out.dat>\n"
               "  dataset_tool stat <in.dat>\n"
               "  dataset_tool run <in.dat> [device]   (any zoo slug)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lassm;
  if (argc < 3) return usage();

  if (std::strcmp(argv[1], "gen") == 0) {
    if (argc < 5) return usage();
    const auto k = static_cast<std::uint32_t>(std::atoi(argv[2]));
    const double scale = std::atof(argv[3]);
    const auto in = model::study_dataset(k, scale, 20240731);
    std::ofstream out(argv[4]);
    workload::save_dataset(out, in);
    std::cout << "wrote " << argv[4] << ": " << in.contigs.size()
              << " contigs, " << in.reads.size() << " reads, "
              << in.total_insertions() << " insertions at k=" << k << "\n";
    return 0;
  }

  std::ifstream file(argv[2]);
  if (!file) {
    std::cerr << "cannot open " << argv[2] << "\n";
    return 1;
  }
  const core::AssemblyInput in = workload::load_dataset(file);

  if (std::strcmp(argv[1], "stat") == 0) {
    workload::DatasetStats s = workload::dataset_stats(in);
    workload::fill_extension_stats(in, s);
    model::TextTable t({"k", "contigs", "reads", "avg read len",
                        "insertions", "avg extn", "total extns"});
    t.add_row({std::to_string(s.kmer_len), std::to_string(s.total_contigs),
               std::to_string(s.total_reads),
               model::TextTable::fmt(s.avg_read_length, 1),
               std::to_string(s.total_hash_insertions),
               model::TextTable::fmt(s.avg_extn_length, 1),
               std::to_string(s.total_extns)});
    t.render(std::cout);
    return 0;
  }

  if (std::strcmp(argv[1], "run") == 0) {
    simt::DeviceSpec dev = simt::DeviceSpec::a100();
    if (argc > 3) {
      const simt::DeviceSpec* found = simt::DeviceSpec::find(argv[3]);
      if (found == nullptr) {
        std::cerr << "dataset_tool: unknown device '" << argv[3]
                  << "' (try: " << simt::DeviceSpec::zoo_slugs() << ")\n";
        return 1;
      }
      dev = *found;
    }
    core::LocalAssembler assembler(dev);
    const core::AssemblyResult r = assembler.run(in);
    std::cout << dev.name << " (" << simt::model_name(assembler.model())
              << ") on " << argv[2] << ":\n"
              << "  modelled time : " << r.total_time_s * 1e3 << " ms\n"
              << "  INTOPs        : " << r.stats.intop_count() << "\n"
              << "  HBM GB        : " << r.hbm_gbytes() << "\n"
              << "  GINTOP/s      : " << r.gintops() << "\n"
              << "  II            : " << r.intop_intensity() << "\n"
              << "  extension b   : " << r.total_extension_bases() << "\n";
    return 0;
  }
  return usage();
}
