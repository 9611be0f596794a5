#include "report.hh"

#include <cstdio>

#include "common/telemetry/json.hh"

namespace perfbench {

using prime::telemetry::jsonNumber;
using prime::telemetry::jsonString;

void
Report::add(const std::string &name, double value, const std::string &unit,
            std::size_t samples)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m = Metric{name, value, unit, samples};
            return;
        }
    }
    metrics_.push_back(Metric{name, value, unit, samples});
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    checks_.push_back(Check{name, ok, detail});
}

void
Report::countOperations(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::note(const std::string &key, const std::string &value)
{
    notes_.emplace_back(key, value);
}

bool
Report::correct() const
{
    for (const Check &c : checks_)
        if (!c.ok)
            return false;
    return true;
}

const Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
Report::print(std::ostream &os) const
{
    for (const auto &[key, value] : notes_)
        os << "# " << key << ": " << value << "\n";
    char line[256];
    std::snprintf(line, sizeof line, "%-44s %16s  %-8s %8s\n", "metric",
                  "value", "unit", "samples");
    os << line;
    for (const Metric &m : metrics_) {
        std::snprintf(line, sizeof line, "%-44s %16.6g  %-8s %8zu\n",
                      m.name.c_str(), m.value, m.unit.c_str(), m.samples);
        os << line;
    }
    for (const Check &c : checks_)
        os << (c.ok ? "check ok   " + c.name
                    : "CHECK FAIL " + c.name +
                          (c.detail.empty() ? "" : ": " + c.detail))
           << "\n";
    os << "operations: " << attempted_ << " attempted, " << failed_
       << " failed\n";

    os << "{\"correct\":" << (correct() ? "true" : "false")
       << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        os << (i ? "," : "");
        jsonString(os, m.name);
        os << ":{\"value\":";
        jsonNumber(os, m.value);
        os << ",\"unit\":";
        jsonString(os, m.unit);
        os << ",\"samples\":" << m.samples << "}";
    }
    os << "},\"notes\":{";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
        os << (i ? "," : "");
        jsonString(os, notes_[i].first);
        os << ":";
        jsonString(os, notes_[i].second);
    }
    os << "}}\n";
}

} // namespace perfbench
