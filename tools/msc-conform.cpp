// msc-conform — cross-backend differential conformance harness.
//
// Draws random stencil programs (2-D/3-D, random radii, time windows,
// coefficients and schedules), runs each one through every lowering of the
// compiler (scheduled executor, generated C/OpenMP, the athread host-sim
// pair, the Sunway core-group simulator, a simulated-MPI decomposed run and
// the AOT backend), and compares each final grid element-wise against the
// per-point IR evaluator, the independent reference.
// Failures are shrunk to minimal reproducers replayable by seed.  Also owns
// the codegen golden snapshots under tests/golden/.
//
//   $ msc-conform --cases 100 --seed 1 --report conform_report.json
//   $ msc-conform --cases 1 --seed 7 --oracles reference,openmp
//   $ msc-conform --check-golden tests/golden
//   $ msc-conform --update-golden tests/golden

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/conform.hpp"
#include "check/golden.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace {

void usage() {
  std::printf(
      "usage: msc-conform [options]\n"
      "  --cases <n>              random cases to run (default 25)\n"
      "  --seed <n>               seed of the first case; case k uses seed+k (default 1)\n"
      "  --oracles <a,b,...>      subset of: reference scheduled c openmp athread\n"
      "                           sunway-sim simmpi aot (default: all)\n"
      "  --max-ulps <n>           per-element ULP budget (default 16)\n"
      "  --no-shrink              report failures without minimizing them\n"
      "  --report <file>          write machine-readable conform_report.json\n"
      "  --workdir <dir>          scratch dir for compiled backends (default: TMPDIR)\n"
      "  --inject-coeff-error <x> perturb the first emitted coefficient by x\n"
      "                           (harness self-test: exits 0 iff an oracle\n"
      "                           detects the fault; an undetected fault is\n"
      "                           a vacuous pass and exits 1)\n"
      "  --fault-inject <f>       inject transport faults into the simmpi\n"
      "                           oracle: a kind (drop, corrupt, duplicate,\n"
      "                           delay) or a msc-fault-plan-v1 JSON file.\n"
      "                           The resilient transport must absorb them\n"
      "                           (simmpi still matches the reference); a\n"
      "                           sweep injecting zero faults exits 1\n"
      "  --check-golden <dir>     diff codegen output against the snapshots\n"
      "  --update-golden <dir>    rewrite the snapshots (review the diff!)\n"
      "  -v                       per-case progress\n"
      "exit status: 0 conformant, 1 mismatches found, 2 usage error\n");
}

}  // namespace

int main(int argc, char** argv) {
  using msc::check::ConformOptions;
  ConformOptions opts;
  std::string check_dir, update_dir;
  bool ran_golden = false;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "msc-conform: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--cases") {
      opts.cases = std::atoi(next());
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--oracles") {
      for (const auto& name : msc::split(next(), ',')) {
        const auto o = msc::check::oracle_from_name(name);
        if (!o) {
          std::fprintf(stderr, "msc-conform: unknown oracle '%s'\n", name.c_str());
          return 2;
        }
        opts.oracles.push_back(*o);
      }
    } else if (arg == "--max-ulps") {
      opts.max_ulps = std::atoll(next());
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else if (arg == "--report") {
      opts.report_path = next();
    } else if (arg == "--workdir") {
      opts.work_dir = next();
    } else if (arg == "--inject-coeff-error") {
      opts.coeff_perturb = std::atof(next());
    } else if (arg == "--fault-inject") {
      opts.fault_inject = next();
    } else if (arg == "--check-golden") {
      check_dir = next();
    } else if (arg == "--update-golden") {
      update_dir = next();
    } else if (arg == "-v" || arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "msc-conform: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }

  try {
    int rc = 0;
    if (!update_dir.empty()) {
      const int n = msc::check::update_golden(update_dir);
      std::printf("golden: wrote %d snapshot files under %s\n", n, update_dir.c_str());
      ran_golden = true;
    }
    if (!check_dir.empty()) {
      const auto diffs = msc::check::check_golden(check_dir);
      if (diffs.empty()) {
        std::printf("golden: %zu snapshot cells clean under %s\n",
                    msc::check::golden_matrix().size(), check_dir.c_str());
      } else {
        for (const auto& d : diffs)
          std::printf("golden: %s %s: %s\n", d.kind.c_str(), d.path.c_str(),
                      d.detail.c_str());
        std::printf("golden: %zu differences — run msc-conform --update-golden and review\n",
                    diffs.size());
        rc = 1;
      }
      ran_golden = true;
    }
    if (!ran_golden || opts.coeff_perturb != 0.0 || !opts.fault_inject.empty()) {
      const auto report = msc::check::run_conformance(opts);
      // conform_exit_code also fails a fault-injection run that tripped no
      // oracle, so the CI self-test cannot pass vacuously.
      if (const int crc = msc::check::conform_exit_code(opts, report); crc != 0) rc = crc;
    }
    return rc;
  } catch (const msc::Error& e) {
    std::fprintf(stderr, "msc-conform: %s\n", e.what());
    return 2;
  }
}
