// perfbench — the repository benchmark's harness binary (perfbench/run.py
// builds it and passes its arguments through).
//
//   perfbench --workload fig06_batch|analysis_churn|daemon_mixed --seed N
//             --seconds S --trace 0|1 [--daemon PATH] [--expect-digest HEX]
//             [--tiny 1]
//
// Prints every metric by name with its unit, then one JSON line
// {"correct", "attempted", "failed", "metrics"} as the last line of stdout.
// Exit 0 whenever that line is printed (failed checks and operations are
// reported in it); non-zero, with no result, when the run cannot complete.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
    perfbench::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::stoull(value);
        } else if (key == "--seconds") {
            options.seconds = std::stod(value);
        } else if (key == "--trace") {
            options.trace = value == "1";
        } else if (key == "--tiny") {
            options.tiny = value == "1";
        } else if (key == "--daemon") {
            options.daemon_path = value;
        } else if (key == "--expect-digest") {
            options.expect_digest = value;
        } else {
            std::fprintf(stderr, "error: unknown option %s\n", key.c_str());
            return 2;
        }
    }
    try {
        std::filesystem::create_directories(options.out_dir);
        if (options.workload == "fig06_batch") return perfbench::run_fig06_batch(options);
        if (options.workload == "analysis_churn") {
            return perfbench::run_analysis_churn(options);
        }
        if (options.workload == "daemon_mixed") return perfbench::run_daemon_mixed(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "error: unknown workload '%s'\n", options.workload.c_str());
    return 2;
}
