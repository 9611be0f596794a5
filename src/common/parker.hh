/**
 * @file
 * Parker: a spin-then-park wait slot for threads that wait on a
 * lock-free condition -- a ring becoming non-empty or non-full, a
 * counter reaching a threshold -- without polling it forever.
 *
 * A waiter first retries its condition with yield for a spin budget
 * (cheap when the condition flips within microseconds, as between the
 * handoffs of a busy pipeline), then parks on a CondVar.  Whoever may
 * have made the condition true calls wake(): one atomic read-modify-
 * write when nobody is parked, a lock + notify only when someone is
 * -- so the uncontended path costs no syscall.
 *
 * The park/wake race (the store-buffering pattern) is closed by making
 * both sides read-modify-write the parked count with acq_rel: the
 * waiter increments it and then re-checks its condition; the waker
 * publishes its change and then reads the count with a no-op RMW.
 * RMWs on one variable are totally ordered and each reads the latest
 * value, so either the waker's RMW sees the increment, or it came
 * first and its release half makes the published change visible to
 * the waiter's re-check.  (Plain fences would do the same but are
 * invisible to ThreadSanitizer.)  The waiter re-checks under the
 * slot's mutex and the waker notifies under it, so a notify cannot
 * slip in between a failed check and the wait either.
 *
 * Any number of threads may wait on one Parker (wake() releases all of
 * them to re-check) and any thread may wake it.  The mutex is a leaf
 * lock: conditions are checked under it, so they must neither wait
 * nor take a lock.
 */

#ifndef PRIME_COMMON_PARKER_HH
#define PRIME_COMMON_PARKER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/mutex.hh"

namespace prime {

class Parker
{
  public:
    using Clock = std::chrono::steady_clock;

    /** How one await() went. */
    struct Outcome
    {
        /** ready() succeeded (false: quit() held with nothing
         *  ready). */
        bool ready = false;
        /** Failed ready() checks while spinning. */
        std::uint64_t misses = 0;
        /** Time spent spinning, and parked. */
        double spinNs = 0.0;
        double parkedNs = 0.0;
    };

    Parker() = default;
    Parker(const Parker &) = delete;
    Parker &operator=(const Parker &) = delete;

    /**
     * Wait until ready() returns true -- it may consume what it waits
     * for (pop a ring) -- or quit() holds with nothing ready.  Spins
     * for @p spin_ns first.
     */
    template <typename Ready, typename Quit>
    Outcome
    await(Ready &&ready, Quit &&quit, double spin_ns)
    {
        Outcome out;
        const Clock::time_point start = Clock::now();
        Clock::time_point now = start;
        for (;;) {
            if (ready()) {
                out.ready = true;
                out.spinNs = nsBetween(start, Clock::now());
                return out;
            }
            if (quit()) {
                out.ready = ready();
                out.spinNs = nsBetween(start, Clock::now());
                return out;
            }
            ++out.misses;
            if (nsBetween(start, now) >= spin_ns)
                break;
            std::this_thread::yield();
            now = Clock::now();
        }
        out.spinNs = nsBetween(start, now);
        {
            UniqueLock lock(mutex_);
            parked_.fetch_add(1, std::memory_order_acq_rel);
            for (;;) {
                if (ready()) {
                    out.ready = true;
                    break;
                }
                if (quit()) {
                    out.ready = ready();
                    break;
                }
                cv_.wait(lock);
            }
            parked_.fetch_sub(1, std::memory_order_relaxed);
        }
        out.parkedNs = nsBetween(now, Clock::now());
        return out;
    }

    /** Release every parked waiter to re-check its condition; call
     *  after making a waited-for condition true. */
    void
    wake()
    {
        if (parked_.fetch_add(0, std::memory_order_acq_rel) > 0) {
            MutexLock lock(mutex_);
            cv_.notify_all();
        }
    }

    /** Threads parked right now (relaxed; a gauge's view). */
    int parked() const { return parked_.load(std::memory_order_relaxed); }

  private:
    static double
    nsBetween(Clock::time_point a, Clock::time_point b)
    {
        return std::chrono::duration<double, std::nano>(b - a).count();
    }

    Mutex mutex_;
    CondVar cv_;
    std::atomic<int> parked_{0};
};

} // namespace prime

#endif // PRIME_COMMON_PARKER_HH
