/// synergy_train — train the four per-metric frequency models for a device
/// from the micro-benchmark suite and persist them to a model store
/// (the administrator step of the paper's deployment workflow, Sec. 3.2).
///
/// Usage: synergy_train <device> <output-dir> [n_microbenchmarks] [freq_samples]

#include <iostream>

#include "synergy/common/parse.hpp"
#include "synergy/synergy.hpp"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: synergy_train <device> <output-dir> [n_microbenchmarks]"
                 " [freq_samples]\n"
                 "  device: V100 | A100 | MI100 | PVC\n";
    return 2;
  }
  try {
    const std::string device = argv[1];
    const std::string out_dir = argv[2];

    synergy::trainer_options opt;
    using synergy::common::parse_number;
    if (argc > 3) opt.n_microbenchmarks = parse_number<std::size_t>(argv[3], "n_microbenchmarks");
    if (argc > 4) opt.freq_samples = parse_number<std::size_t>(argv[4], "freq_samples");

    const auto spec = synergy::gpusim::make_device_spec(device);
    std::cout << "training on " << spec.name << ": " << opt.n_microbenchmarks
              << " micro-benchmarks x " << opt.freq_samples << " clocks x "
              << opt.repetitions << " repetitions\n";

    synergy::model_trainer trainer{spec, opt};
    const auto suite = trainer.generate_microbenchmarks();
    const auto sets = trainer.measure(suite);
    std::cout << "training set: " << sets.time.size() << " samples, "
              << sets.time.x.cols() << " inputs\n";

    const auto models = trainer.fit(sets, synergy::ml::algorithm::linear,
                                    synergy::ml::algorithm::random_forest,
                                    synergy::ml::algorithm::random_forest,
                                    synergy::ml::algorithm::linear);

    synergy::model_store store{out_dir};
    if (const auto st = store.save(device, models); !st.ok()) {
      std::cerr << "error: cannot persist models: " << st.err().to_string() << '\n';
      return 1;
    }
    std::cout << "models written to " << out_dir << "/" << device << "/ ("
              << models.time->name() << " time, " << models.energy->name() << " energy, "
              << models.edp->name() << " EDP, " << models.ed2p->name() << " ED2P)\n";
    std::cout << "feature envelope: " << models.envelope.samples()
              << " training vectors x " << models.envelope.dims()
              << " dims (the planner's out-of-distribution rail)\n";
    std::cout << "verify any installed copy with: synergy_plan --validate " << out_dir
              << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
