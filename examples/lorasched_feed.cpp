// lorasched_feed — bid-stream driver for lorasched_shard_serve.
//
// Materializes a scenario's arrival sequence and emits it as line-delimited
// bids, either all at once (--export, for file-based replay) or paced slot
// by slot onto stdout so a pipe into lorasched_shard_serve exercises
// real-time ingestion:
//
//   ./lorasched_feed --export bids.txt --seed 7
//   ./lorasched_feed --slot-ms 100 --seed 7 |
//       ./lorasched_shard_serve --slot-ms 100 --seed 7
#include <chrono>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "lorasched/experiments/scenario.h"
#include "lorasched/io/serialize.h"
#include "lorasched/loadgen/arrival.h"
#include "lorasched/util/cli.h"

using namespace lorasched;

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only({"scenario", "seed", "export", "slot-ms"});

  ScenarioConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (cli.has("scenario")) {
    std::ifstream in(cli.get("scenario", ""));
    if (!in) throw std::runtime_error("cannot open scenario file");
    config = io::read_scenario(in);
  }
  const Instance instance = make_instance(config);

  if (cli.has("export")) {
    std::ofstream out(cli.get("export", ""));
    if (!out) throw std::runtime_error("cannot open export file");
    for (const Task& task : instance.tasks) {
      out << io::format_bid_line(task) << '\n';
    }
    std::cerr << "exported " << instance.tasks.size() << " bids to "
              << cli.get("export", "") << "\n";
    return 0;
  }

  // Paced emission: bids leave during their arrival slot, so the consumer's
  // slot clock (same --slot-ms) sees them exactly when the simulator would.
  const auto slot_period =
      std::chrono::milliseconds(cli.get_int("slot-ms", 0));
  const std::size_t fed = loadgen::pace_bids(
      instance.tasks, slot_period,
      [](const Task& task) { std::cout << io::format_bid_line(task) << '\n'; },
      [](Slot) { std::cout.flush(); });
  std::cerr << "fed " << fed << " bids over " << instance.horizon
            << " slots\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
