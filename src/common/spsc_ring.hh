/**
 * @file
 * A fixed-capacity single-producer / single-consumer ring queue: the
 * inter-stage handoff primitive of the free-running pipeline executor.
 * One stage worker pushes, exactly one downstream worker pops; the ring
 * never allocates after construction and a push/pop is two atomic
 * operations on the uncontended path.
 *
 * Threading / memory-ordering contract (the TraceSession-lane style:
 * single-writer slots published by a counter):
 *  - Exactly one thread calls tryPush (the producer) and exactly one
 *    thread calls tryPop (the consumer) for the ring's lifetime.
 *  - Slots are a fixed array that never moves.  The producer fully
 *    writes slot (tail % slots) and then publishes it with a release
 *    store of `tail_`; the consumer loads `tail_` with acquire, so a
 *    slot's contents are visible before the index that covers it.
 *  - Symmetrically the consumer moves a slot out and then retires it
 *    with a release store of `head_`; the producer loads `head_` with
 *    acquire before reusing a slot, so the moved-from slot is fully
 *    released before being overwritten.
 *  - head_ and tail_ live on separate cache lines (and apart from the
 *    slot array) so the two sides do not false-share; each side also
 *    keeps a cached copy of the opposite index and re-reads the atomic
 *    only when the cache says full/empty, halving coherence traffic on
 *    the fast path.
 *  - Indices increase monotonically and wrap modulo capacity+1 slots
 *    (one slot stays empty to distinguish full from empty), so
 *    size() == tail - head is exact for either owning thread and a
 *    conservative snapshot for anyone else.
 */

#ifndef PRIME_COMMON_SPSC_RING_HH
#define PRIME_COMMON_SPSC_RING_HH

#include <atomic>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace prime {

/** Bounded wait-free SPSC FIFO of movable values. */
template <typename T>
class SpscRing
{
    // Slots hand values across threads by move assignment under the
    // head/tail release/acquire protocol -- never by memcpy, so
    // trivial copyability is deliberately NOT required (the pipeline's
    // HandoffBatch carries std::vector payloads).  What the protocol
    // does require is that a slot can be default-constructed empty and
    // moved through without throwing mid-handoff.
    static_assert(std::is_default_constructible_v<T>,
                  "SpscRing slots are preallocated empty");
    static_assert(std::is_move_constructible_v<T> &&
                      std::is_move_assignable_v<T>,
                  "SpscRing hands values across threads by move");

  public:
    /** A ring holding up to @p capacity >= 1 values. */
    explicit SpscRing(std::size_t capacity)
        : slots_(capacity + 1)
    {
        PRIME_ASSERT(capacity >= 1, "SPSC ring needs capacity >= 1");
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    /** Values the ring can hold. */
    std::size_t capacity() const { return slots_.size() - 1; }

    /**
     * Producer side: move @p value in and return true, or return false
     * (leaving @p value untouched) when the ring is full.
     */
    bool
    tryPush(T &&value)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        const std::size_t next = increment(tail);
        if (next == cachedHead_) {
            cachedHead_ = head_.load(std::memory_order_acquire);
            if (next == cachedHead_)
                return false;  // full
        }
        slots_[tail] = std::move(value);
        tail_.store(next, std::memory_order_release);
        return true;
    }

    /**
     * Producer side: whether a tryPush right now would fail.  Only the
     * consumer can change the answer (from true to false), so a false
     * here guarantees the producer's next tryPush succeeds -- which
     * lets a producer finish its bookkeeping before publishing.
     */
    bool
    full()
    {
        const std::size_t next =
            increment(tail_.load(std::memory_order_relaxed));
        if (next == cachedHead_)
            cachedHead_ = head_.load(std::memory_order_acquire);
        return next == cachedHead_;
    }

    /**
     * Consumer side: move the oldest value into @p out and return true,
     * or return false when the ring is empty.
     */
    bool
    tryPop(T &out)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head == cachedTail_) {
            cachedTail_ = tail_.load(std::memory_order_acquire);
            if (head == cachedTail_)
                return false;  // empty
        }
        out = std::move(slots_[head]);
        head_.store(increment(head), std::memory_order_release);
        return true;
    }

    /** Buffered values (exact for the owning threads, see contract). */
    std::size_t
    size() const
    {
        const std::size_t head = head_.load(std::memory_order_acquire);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        return tail >= head ? tail - head
                            : tail + slots_.size() - head;
    }

    bool empty() const { return size() == 0; }

    /**
     * Lock-free occupancy estimate safe from *any* thread (the metrics
     * sampler's probe).  Relaxed loads: the two cursors may be observed
     * from different moments, so the raw difference can be transiently
     * out of range -- the result is clamped to [0, capacity] and only
     * ever approximate for non-owning threads.  Never synchronizes with
     * the producer/consumer, so it adds no ordering to the fast path.
     */
    std::size_t
    approxSize() const
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        const std::size_t raw = tail >= head
                                    ? tail - head
                                    : tail + slots_.size() - head;
        return raw > capacity() ? capacity() : raw;
    }

  private:
    std::size_t
    increment(std::size_t index) const
    {
        return index + 1 == slots_.size() ? 0 : index + 1;
    }

    std::vector<T> slots_;
    /** Consumer cursor: next slot to pop (owned by the consumer). */
    alignas(64) std::atomic<std::size_t> head_{0};
    /** Consumer's cached view of tail_ (consumer-private). */
    alignas(64) std::size_t cachedTail_ = 0;
    /** Producer cursor: next slot to fill (owned by the producer). */
    alignas(64) std::atomic<std::size_t> tail_{0};
    /** Producer's cached view of head_ (producer-private). */
    alignas(64) std::size_t cachedHead_ = 0;
};

} // namespace prime

#endif // PRIME_COMMON_SPSC_RING_HH
