/**
 * @file
 * The benchmark's own tests:
 *   - quantile and slo_frac math is exact on synthetic samples;
 *   - an injected output mismatch fails the run, on every workload;
 *   - the closed-loop client never has more than 32 requests
 *     outstanding (the gate alone under contention, and a served run).
 * Exits non-zero on the first failed expectation.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "outstanding_gate.hh"
#include "report.hh"
#include "sample_stats.hh"
#include "workloads.hh"

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

void
testQuantiles()
{
    using namespace perfbench;
    // 1..100: nearest rank puts p50 at 50, p99 at 99, p100 at 100.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    expect(quantile(v, 0.50) == 50.0, "p50 of 1..100 is 50");
    expect(quantile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
    expect(quantile(v, 0.95) == 95.0, "p95 of 1..100 is 95");
    expect(quantile(v, 1.00) == 100.0, "p100 of 1..100 is 100");
    expect(quantile(v, 0.0) == 1.0, "p0 of 1..100 is the minimum");
    expect(quantile({7.5}, 0.99) == 7.5, "one sample is every quantile");
    expect(std::isnan(quantile({}, 0.5)), "no samples -> NaN");
    expect(median({3, 1, 2, 4}) == 2.0, "even count: lower middle");
    expect(sustainedRate(v) == 90.0,
           "sustained rate of 1..100 is the 90th percentile, 90");

    // 1000 samples: p95 and p99 separate (no bucket midpoints).
    std::vector<double> w;
    for (int i = 1; i <= 1000; ++i)
        w.push_back(i * 0.01);
    expect(quantile(w, 0.95) == 950 * 0.01, "p95 of 1000 samples exact");
    expect(quantile(w, 0.99) == 990 * 0.01, "p99 of 1000 samples exact");

    // A missed request counts against the SLO and pushes the tail.
    std::vector<double> lat = {1, 2, 3, 4, 5, 6, 7, 8, kMissed, 4.9};
    expect(sloFraction(lat, 5.0) == 0.6,
           "slo_frac: 6 of 10 within 5 ms, the missed one counted");
    expect(sloFraction(lat, 1000.0) == 0.9,
           "slo_frac: a missed request misses every limit");
    expect(std::isinf(quantile(lat, 1.0)), "a missed request is the max");
    expect(sloFraction({}, 5.0) == 0.0, "slo_frac of nothing is 0");

    expect(minSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
    expect(minSamplesFor(0.5) == 20, "p50 needs 20 samples");
}

void
testGateUnderContention()
{
    perfbench::OutstandingGate gate(32);
    std::atomic<int> live{0}, worst{0};
    std::vector<std::thread> completers;
    // Client thread submits; each "request" completes on its own thread.
    for (int i = 0; i < 200; ++i) {
        gate.acquire();
        const int now = live.fetch_add(1) + 1;
        int prev = worst.load();
        while (now > prev && !worst.compare_exchange_weak(prev, now)) {
        }
        completers.emplace_back([&gate, &live] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            live.fetch_sub(1);
            gate.release();
        });
    }
    gate.waitIdle();
    for (std::thread &t : completers)
        t.join();
    expect(worst.load() <= 32,
           "gate: never more than 32 outstanding (high-water " +
               std::to_string(worst.load()) + ")");
    expect(worst.load() == 32, "gate: the client filled all 32 slots");
}

perfbench::Report
shortRun(const std::string &workload, bool inject)
{
    perfbench::Options o;
    o.workload = workload;
    o.seed = 5;
    o.seconds = 0.5;
    o.setupRepeats = 2;
    o.minPhaseRequests = 50;
    o.injectMismatch = inject;
    perfbench::Report report;
    perfbench::runWorkload(o, report);
    return report;
}

void
testWorkloads()
{
    for (const std::string &w : perfbench::workloadNames()) {
        const perfbench::Report clean = shortRun(w, false);
        expect(clean.correct(), w + ": clean run passes its checks");
        expect(clean.attempted() > 0 && clean.failed() == 0,
               w + ": operations attempted, none failed");
        const perfbench::Report bad = shortRun(w, true);
        expect(!bad.correct(), w + ": injected mismatch fails the run");
        if (w == "serve") {
            bool bound_checked = false;
            for (const perfbench::Check &c : clean.checks())
                if (c.name == "serve.closed_outstanding_bound")
                    bound_checked = c.ok;
            expect(bound_checked,
                   "serve: closed loop stayed within 32 outstanding");
            const perfbench::Metric *most =
                clean.find("serve.closed.outstanding_max");
            expect(most && most->value == 32,
                   "serve: the client's own count reached the 32 the "
                   "gate allows");
        }
    }
}

} // namespace

int
main()
{
    prime::setLogLevel(prime::LogLevel::Quiet);
    testQuantiles();
    testGateUnderContention();
    testWorkloads();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
