#include "prime/buffer_subarray.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"

namespace prime::core {

BufferSubarray::BufferSubarray(const nvmodel::TechParams &tech,
                               StatGroup *stats)
    : readBytesStat_(stats, "buffer.read_bytes"),
      writeBytesStat_(stats, "buffer.write_bytes")
{
    const nvmodel::Geometry &g = tech.geometry;
    const std::size_t bytes_per_mat = static_cast<std::size_t>(g.matRows) *
                                      g.matCols * g.arraysPerFfMat / 8;
    data_.assign(bytes_per_mat * g.matsPerSubarray, 0);
}

void
BufferSubarray::write(std::size_t addr,
                      const std::vector<std::uint8_t> &bytes)
{
    PRIME_SPAN(telemetry::globalTrace(), "buffer.write", "buffer");
    PRIME_ASSERT(addr + bytes.size() <= data_.size(),
                 "buffer write out of range: ", addr, "+", bytes.size(),
                 " > ", data_.size());
    std::copy(bytes.begin(), bytes.end(), data_.begin() + addr);
    traffic_ += bytes.size();
    writeBytesStat_.add(static_cast<double>(bytes.size()));
}

std::vector<std::uint8_t>
BufferSubarray::read(std::size_t addr, std::size_t size) const
{
    PRIME_SPAN(telemetry::globalTrace(), "buffer.read", "buffer");
    PRIME_ASSERT(addr + size <= data_.size(),
                 "buffer read out of range: ", addr, "+", size);
    traffic_ += size;
    readBytesStat_.add(static_cast<double>(size));
    return std::vector<std::uint8_t>(data_.begin() + addr,
                                     data_.begin() + addr + size);
}

void
BufferSubarray::writeValues(std::size_t addr,
                            const std::vector<double> &values)
{
    std::vector<std::uint8_t> bytes(values.size() * sizeof(double));
    std::memcpy(bytes.data(), values.data(), bytes.size());
    write(addr, bytes);
}

std::vector<double>
BufferSubarray::readValues(std::size_t addr, std::size_t count) const
{
    std::vector<std::uint8_t> bytes = read(addr, count * sizeof(double));
    std::vector<double> values(count);
    std::memcpy(values.data(), bytes.data(), bytes.size());
    return values;
}

} // namespace prime::core
