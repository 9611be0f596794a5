/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload <serve|batch-mlp4|seq-cnn1> --seed N
 *             --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Prints a table of every metric (name, value, unit, sample count) and
 * the output checks, then one JSON line with everything.  Exits 1 when
 * an output check failed, 2 on bad arguments or a build whose timings
 * must not be reported (not Release, or built with a sanitizer).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "report.hh"
#include "workloads.hh"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = PERFBENCH_SANITIZED != 0;
#endif

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n"
                 "workloads:",
                 why);
    for (const std::string &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (!(options.seconds > 0.0))
                return usage("--seconds must be positive");
        } else if (arg == "--trace") {
            options.trace = std::strcmp(value, "0") != 0;
        } else if (arg == "--trace-out") {
            options.traceOut = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
        if (end && *end != '\0')
            return usage(("bad number for " + arg).c_str());
    }
    if (!have_workload)
        return usage("--workload is required");

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "RELEASE" || kSanitized) {
        std::fprintf(stderr,
                     "perfbench: refusing to report timings from a %s%s "
                     "build; configure with -DCMAKE_BUILD_TYPE=Release and "
                     "no sanitizer\n",
                     build_type.empty() ? "default" : build_type.c_str(),
                     kSanitized ? " sanitizer" : "");
        return 2;
    }

    prime::setLogLevel(prime::LogLevel::Quiet);
    perfbench::Report report;
    report.note("workload", options.workload);
    report.note("seed", std::to_string(options.seed));
    report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
    report.note("build_type", build_type);
    if (!perfbench::runWorkload(options, report))
        return usage(("unknown workload " + options.workload).c_str());
    report.print(std::cout);
    std::cout.flush();
    return report.correct() ? 0 : 1;
}
