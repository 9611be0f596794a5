/**
 * @file
 * The closed-loop client's admission gate: at most `limit` requests
 * outstanding.  The client blocks in acquire() until a completion
 * callback release()s a slot -- it never polls.  The client counts
 * its outstanding requests itself, so a run checks the bound against a
 * count the gate does not keep.
 */

#ifndef PERFBENCH_OUTSTANDING_GATE_HH
#define PERFBENCH_OUTSTANDING_GATE_HH

#include <condition_variable>
#include <mutex>

namespace perfbench {

class OutstandingGate
{
  public:
    explicit OutstandingGate(int limit) : limit_(limit) {}

    OutstandingGate(const OutstandingGate &) = delete;
    OutstandingGate &operator=(const OutstandingGate &) = delete;

    /** Block until a slot is free, then take it. */
    void
    acquire()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return outstanding_ < limit_; });
        ++outstanding_;
    }

    /** Give a slot back (any thread). */
    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --outstanding_;
        }
        cv_.notify_all();
    }

    /** Block until nothing is outstanding. */
    void
    waitIdle()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return outstanding_ == 0; });
    }

  private:
    const int limit_;
    std::mutex mutex_;
    std::condition_variable cv_;
    int outstanding_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_OUTSTANDING_GATE_HH
