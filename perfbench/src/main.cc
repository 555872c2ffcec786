// dpss_perfbench: runs one workload of the repository benchmark and prints
// its metrics. perfbench/run.py builds this binary and is the entry point:
//
//   dpss_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --workdir <dir> --outdir <dir> [--tiny]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it,
// prefixed "details: ", carries sample counts, check values and ratio bases.
// The exit code is non-zero when an output check failed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util.h"

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(v.c_str());
    else if (arg == "--trace") a.trace = v != "0";
    else if (arg == "--workdir") a.workdir = v;
    else if (arg == "--outdir") a.outdir = v;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(a.workload);
  if (w == nullptr || a.seconds <= 0 || a.workdir.empty() ||
      a.outdir.empty()) {
    std::fprintf(stderr,
                 "perfbench: need --workload serve_read|serve_durable_write|"
                 "embed_mixed, --seconds > 0, --workdir and --outdir\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(a.workdir, ec);
  std::filesystem::create_directories(a.outdir, ec);

  // Records the process's CPUs before any thread is pinned.
  perfbench::PinThisThread(perfbench::Cpu::kServer);
  perfbench::Report report;
  report.Detail("workload", w->name);
  report.Detail("seed", static_cast<double>(a.seed));
  if (a.trace) {
    perfbench::RunTraced(*w, a, &report);
  } else if (w->served) {
    perfbench::RunServed(*w, a, &report);
  } else {
    perfbench::RunEmbedded(*w, a, &report);
  }

  std::printf("%s (%s)\n", w->name, a.trace ? "traced" : "end to end");
  report.PrintHuman();
  std::printf("details: %s\n", report.DetailsJson().c_str());
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
