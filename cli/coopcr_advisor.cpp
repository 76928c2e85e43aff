// coopcr_advisor — the checkpoint-advisor service from the command line.
//
// Ingest sweep artifacts, then answer structured queries: one single-line
// JSON query per stdin line, one versioned JSON answer per stdout line.
// Answers come from multilinear interpolation over the ingested grids when
// the query point is inside the hull, and from an on-demand fallback
// campaign (through the exp::SweepExecutor backend selected by --backend /
// --shards) when it is not. Repeated queries hit the digest-keyed LRU
// cache and return byte-identical answer text.
//
//   coopcr_sweep --spec demo --replicas 8 --out artifacts/
//   query='{"coords":{"pfs_bandwidth_gbps":80,"interference_alpha":0.5}}'
//   printf '%s\n' "$query" | coopcr_advisor --ingest artifacts/
//
// Determinism contract: answer lines on stdout are a pure function of the
// ingested artifacts, the engine options and the query — all volatile
// output (the {"stats":{...}} block with cache hit/miss counters,
// interpolated-vs-computed counts and per-query latency) goes to stderr.
// Batch mode prints one stats block at EOF; --serve flushes every answer
// and prints a stats block after each query.

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "coopcr.hpp"

using namespace coopcr;

namespace {

void usage(std::ostream& os) {
  os << "usage: coopcr_advisor --ingest PATH [options]\n"
        "  --ingest PATH      artifact .json file or directory of them "
        "(repeatable, at least one)\n"
        "  --metric NAME      default ranking metric (default waste_ratio)\n"
        "  --max-ci W         recompute when the interpolated 95% CI "
        "half-width exceeds W (default: trust the grid)\n"
        "  --replicas N       fallback campaign replicas (default: the "
        "grid's own count)\n"
        "  --target-ci W      fallback campaigns grow replicas until every "
        "95% CI width is <= W, on either backend (default: fixed count)\n"
        "  --backend NAME     fallback engine: inprocess | dist (default "
        "inprocess)\n"
        "  --shards N         dist backend worker processes (default 2)\n"
        "  --threads N        in-process backend threads; 0 = hardware "
        "concurrency\n"
        "  --cache N          answer cache capacity; 0 disables (default "
        "256)\n"
        "  --serve            flush each answer; stats block after every "
        "query\n"
        "  --list             print the ingested grids and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> ingest_paths;
    serve::AdvisorOptions options;
    bool serve_mode = false;
    bool list_only = false;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // The value of a flag that takes one; consumes it.
      const auto value = [&]() -> std::string {
        COOPCR_CHECK(i + 1 < argc, arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--ingest") {
        ingest_paths.push_back(value());
      } else if (arg == "--metric") {
        options.engine.default_metric = value();
      } else if (arg == "--max-ci") {
        options.engine.max_ci_halfwidth = env::parse_double(value(), arg, 0.0);
      } else if (arg == "--replicas") {
        options.engine.fallback_replicas = env::parse_int(value(), arg, 0);
      } else if (arg == "--target-ci") {
        options.engine.fallback_target_ci =
            env::parse_double(value(), arg, 0.0);
      } else if (arg == "--backend") {
        const std::string name = value();
        COOPCR_CHECK(name == "inprocess" || name == "in-process" ||
                         name == "dist",
                     "--backend: unknown backend \"" + name +
                         "\" — expected inprocess or dist");
        options.engine.executor.backend = name == "dist"
                                              ? exp::ExecutorBackend::kDist
                                              : exp::ExecutorBackend::kInProcess;
      } else if (arg == "--shards") {
        options.engine.executor.shards = env::parse_int(value(), arg, 1);
      } else if (arg == "--threads") {
        options.engine.executor.threads = env::parse_int(value(), arg, 0);
      } else if (arg == "--cache") {
        options.cache_capacity =
            static_cast<std::size_t>(env::parse_int(value(), arg, 0));
      } else if (arg == "--serve") {
        serve_mode = true;
      } else if (arg == "--list") {
        list_only = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else {
        usage(std::cerr);
        throw Error("unknown argument: " + arg);
      }
    }
    COOPCR_CHECK(!ingest_paths.empty(),
                 "nothing to serve — pass --ingest at least once");

    serve::Advisor advisor(options);
    std::size_t fresh = 0;
    for (const std::string& path : ingest_paths) {
      if (std::filesystem::is_directory(path)) {
        fresh += advisor.ingest_dir(path);
      } else {
        fresh += advisor.ingest_file(path) ? 1 : 0;
      }
    }
    std::cerr << "[coopcr_advisor] ingested " << fresh << " artifact"
              << (fresh == 1 ? "" : "s") << " into "
              << advisor.store().grid_count() << " grid"
              << (advisor.store().grid_count() == 1 ? "" : "s") << "\n";

    if (list_only) {
      for (const std::string& name : advisor.store().experiments()) {
        const serve::StoredGrid& grid = *advisor.store().find(name);
        std::cout << name << "\t" << grid.point_count() << "/"
                  << grid.cell_count() << " points\t" << grid.replicas
                  << " replicas\t" << grid.strategies.size()
                  << " strategies" << (grid.complete() ? "" : "\tINCOMPLETE")
                  << (grid.plan.spec ? "" : "\tno periods: " +
                                                grid.plan.no_periods)
                  << "\n";
      }
      return 0;
    }

    // The query loop: bad lines produce a deterministic {"error":...} line
    // and the loop continues — one malformed query must not kill a batch.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      // Error answers carry message(), never the source location or the
      // checked C++ condition, so the same query answers the same bytes
      // from any checkout.
      try {
        std::cout << advisor.answer_json(line) << "\n";
      } catch (const Error& e) {
        std::cout << "{\"error\":\"" << json_escaped(e.message()) << "\"}\n";
      } catch (const std::exception& e) {
        std::cout << "{\"error\":\"" << json_escaped(e.what()) << "\"}\n";
      }
      if (serve_mode) {
        std::cout.flush();
        std::cerr << advisor.stats().to_json() << "\n";
      }
    }
    if (!serve_mode) std::cerr << advisor.stats().to_json() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "coopcr_advisor: " << e.what() << "\n";
    return 1;
  }
}
