/**
 * @file
 * What one benchmark run reports: named metrics with unit and sample
 * count, the output checks, the attempted/failed operation counts and
 * the build stamp.  print() writes a human-readable table followed by
 * one JSON line holding everything, which run.py reduces to the metrics
 * BENCHMARK.json declares.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One measured figure. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples the value was computed from (1 for a single reading). */
    std::size_t samples = 1;
};

/** One output check; a failed check fails the run. */
struct Check
{
    std::string name;
    bool ok = true;
    /** What went wrong (printed only when the check failed). */
    std::string detail;
};

/** Everything a run measured and checked. */
class Report
{
  public:
    /** Record @p name; a second add() of the same name replaces it. */
    void add(const std::string &name, double value, const std::string &unit,
             std::size_t samples = 1);

    /** Record an output check. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");

    /** Count operations (requests, calls, images) and their failures. */
    void countOperations(std::uint64_t attempted, std::uint64_t failed);

    /** Informational key/value printed with the stamp (digest, plan). */
    void note(const std::string &key, const std::string &value);

    /** True when every check passed. */
    bool correct() const;

    const Metric *find(const std::string &name) const;
    const std::vector<Check> &checks() const { return checks_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Human-readable table, then the JSON line (last line). */
    void print(std::ostream &os) const;

  private:
    std::vector<Metric> metrics_;
    std::vector<Check> checks_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
