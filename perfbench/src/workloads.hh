/**
 * @file
 * The benchmark's workloads.  Each builds its model, weights, inputs
 * and arrival schedule from the seed, times the set-up, drives the
 * system through public calls only, checks the outputs and fills a
 * Report.
 *
 *   serve       4-bank MLP 64-256-256-256-256 behind ServingEngine:
 *               open loop at 300 and 600 req/s, then 32 outstanding.
 *   batch-mlp4  the same model, back-to-back pipelined runBatch(256).
 *   seq-cnn1    MlBench CNN-1 on the default geometry, run() per image.
 *
 * An untraced run reports the end-to-end metrics.  A traced run
 * measures the same thing in four slices (tracing off, on, on, off;
 * the difference is the tracing overhead) and then times each
 * layer from outside through its public calls, recording bench-side
 * spans into a Chrome trace.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured time of one run (the set-up is extra). */
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace destination of a traced run ("" = none). */
    std::string traceOut;
    /** Set-ups timed per run, half before the measurement and half
     *  after it; setup_s is the fastest. */
    int setupRepeats = 15;
    /** Fewest requests an open-loop phase sends (p99 needs 1000). */
    std::size_t minPhaseRequests = 1000;
    /** Self-test hook: corrupt one reference output so the output
     *  check must fail the run. */
    bool injectMismatch = false;
};

/** Names accepted by runWorkload. */
const std::vector<std::string> &workloadNames();

/** Run one workload; false if the name is unknown. */
bool runWorkload(const Options &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
