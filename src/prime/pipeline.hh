/**
 * @file
 * The streaming inter-bank pipeline executor (paper Section IV-B).
 *
 * A Large MappingPlan assigns consecutive layer groups to disjoint
 * banks; PipelineExecutor streams samples through those stages with
 * one long-lived worker per stage (a prime::WorkerGroup, one trace
 * lane each), connected by bounded SPSC ring queues (prime::SpscRing)
 * that carry *batches* of samples per handoff, so the per-sample
 * synchronization cost is two atomic operations amortized over
 * RunBatchOptions::handoffBatch samples.  No global round barrier
 * exists: a stage runs as long as its input ring has work and its
 * output ring has room, which is what turns the modeled bank
 * concurrency into host wall-clock speedup (the decoupled-queue idiom
 * of McSim's PTSMemoryController/PTSXbar).
 *
 * Data path:
 *
 *   runBatch / ServingEngine --tryPush--> MpscRing<Item> ingress
 *        (one Item per sample, tagged with its batch and request id)
 *                  |
 *                  v
 *   stage 0 --SpscRing--> stage 1 --SpscRing--> ... --> last stage
 *                                                         |
 *                     outputs + stats of a finished batch v
 *                                              the batch's Done callback
 *
 * Lifecycle: PrimeSystem creates the executor at the first pipelined
 * runBatch/submitBatch after configDatapath -- never while setting up
 * -- and destroys it (draining, then joining the workers) in
 * mapTopology, programWeight, release, setAnalogCompute and its own
 * destructor.  Between batches the workers cost no CPU: a worker whose
 * input is empty (or whose output ring is full) spins with yield for
 * kSpinNs and then parks on a prime::Parker (common/parker.hh).  A
 * peer that changes what the worker waits for (a push into its input,
 * a pop from its output, a submission into the ingress) wakes it only
 * when it is parked, so an uncontended handoff costs no syscall.
 *
 * Batches stream: a submitter pushes its samples into the ingress --
 * parking while it is full, or while it holds the batch's
 * RunBatchOptions::maxQueued samples -- and returns (submit) or parks
 * until its batch completes (run), so consecutive batches -- from one
 * thread or several -- overlap in the stages.  Stage 0 closes a
 * handoff at a multiple of the batch's handoff size, at the batch's
 * last sample, or when the next ingress sample belongs to another
 * batch; a handoff never mixes batches.
 *
 * Determinism contract: each sample passes through the stages in
 * order, and each stage's hardware (its banks, staging windows and
 * StatGroup) is touched only by that stage's worker, in arrival order
 * -- so the output tensors are bit-identical to sequential
 * PrimeSystem::run() calls at any thread count, ring capacity,
 * handoff size and batch composition.  Timing-derived stats
 * (pipeline.stage_ns, mem.queue_ns under concurrency) are
 * schedule-dependent.
 *
 * Stats contract: every pipeline.* / run.* stat a batch moves is
 * written before its Done callback runs (so complete when runBatch
 * returns).  Handles are resolved once, at executor start; each worker
 * writes its own stage's stats directly (single writer), publishes its
 * wall-time attribution at every handoff, and folds its share of the
 * stage-summed stats (pipeline.stage_ns, handoffs, push/pop waits)
 * in under one short-held leaf mutex.  The last stage alone writes
 * the per-batch totals.  Parked time is off duty: it is in no stage's
 * wall, stall or idle time.
 *
 * Lock contract: the rings and the ingress are lock-free; the mutexes
 * here are leaf locks (the Parkers', the stats fold) never held across
 * a stage's work, and the shard locks reached through MainMemory are
 * the annotated capabilities in memory/main_memory.hh.  Every atomic
 * spells its memory_order (prime_lint `atomic-order`).
 */

#ifndef PRIME_PRIME_PIPELINE_HH
#define PRIME_PRIME_PIPELINE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mpsc_ring.hh"
#include "common/mutex.hh"
#include "common/parker.hh"
#include "common/spsc_ring.hh"
#include "common/stats.hh"
#include "common/telemetry/histogram.hh"
#include "common/telemetry/metrics.hh"
#include "common/thread_annotations.hh"
#include "common/thread_pool.hh"
#include "prime/prime_system.hh"

namespace prime::core {

/** The executor's in-flight records (pipeline.cc owns their use). */
namespace pipeline {

struct Job;

/** One sample on its way through the stages. */
struct Item
{
    Job *job = nullptr;
    /** Position in the job's batch (its output slot). */
    std::size_t index = 0;
    std::uint64_t requestId = 0;
    /** Input of the stage it is queued for (empty in the ingress:
     *  stage 0 reads the batch's input directly). */
    nn::Tensor tensor;
    /** Stage-0 pickup time (the end-to-end latency epoch). */
    double admitNs = 0.0;
    /** Last ring-push time (the queue-wait epoch). */
    double enqueueNs = 0.0;
};

/** One submitted batch, owned by the pipeline until completed. */
struct Job
{
    std::span<const nn::Tensor> inputs;
    std::vector<nn::Tensor> outputs;
    std::size_t handoff = 1;
    /** Per stage: wall ns spent on this batch (written only by
     *  that stage, read by the last stage once the batch is
     *  through -- the ring handoffs order the two). */
    std::vector<double> stageBusyNs;
    PrimeSystem::BatchDone done;
};

} // namespace pipeline

/** Persistent stage workers streaming batches through the plan. */
class PipelineExecutor
{
  public:
    /** Spin budget of a waiting worker before it parks. */
    static constexpr double kSpinNs = 500e3;

    /**
     * Spawn one worker per stage of @p system's plan; each inter-stage
     * ring holds @p ring_capacity handoffs.  The workers park at once.
     */
    PipelineExecutor(PrimeSystem &system, std::size_t ring_capacity);

    /** Finish what is in flight, then stop and join the workers. */
    ~PipelineExecutor();

    PipelineExecutor(const PipelineExecutor &) = delete;
    PipelineExecutor &operator=(const PipelineExecutor &) = delete;

    std::size_t ringCapacity() const { return ringCapacity_; }

    /**
     * Count one batch in flight ahead of its submit(): PrimeSystem
     * calls this while it holds the executor, so the executor cannot
     * be replaced between the lookup and the submission.
     */
    void admit() { inflight_.fetch_add(1, std::memory_order_relaxed); }

    /** No admitted batch is waiting for completion. */
    bool
    idle() const
    {
        return inflight_.load(std::memory_order_acquire) == 0;
    }

    /**
     * Stream one admitted, non-empty batch in handoffs of
     * @p options.handoffBatch samples; @p inputs must stay valid until
     * @p done runs.  @p request_ids tag the samples (empty: the
     * executor numbers them).  Returns once every sample is in the
     * ingress -- parking while it is full or holds
     * @p options.maxQueued samples -- and @p done runs later on the
     * last stage's worker.
     */
    void submit(std::span<const nn::Tensor> inputs,
                std::span<const std::uint64_t> request_ids,
                const PrimeSystem::RunBatchOptions &options,
                PrimeSystem::BatchDone done);

    /** Add the live ring/stage/worker gauges to @p registry. */
    void registerMetrics(telemetry::MetricsRegistry &registry);

    /** Remove the gauges registerMetrics added (no-op if none). */
    void unregisterMetrics();

  private:
    using Item = pipeline::Item;
    using Job = pipeline::Job;
    using HandoffBatch = std::vector<Item>;

    /** Worker-private accounting since the last published handoff. */
    struct Pending
    {
        double busyNs = 0.0;
        double stallUpNs = 0.0;   ///< spinning on an empty input
        double stallDownNs = 0.0; ///< waiting on a full output ring
        double parkedNs = 0.0;    ///< parked on an empty input
        std::uint64_t pushWaits = 0;
        std::uint64_t popWaits = 0;
        /** Per-sample stage ns, folded into pipeline.stage_ns. */
        std::vector<double> stageNs;
    };

    /** One stage worker: its wait slots, gauges and stat handles. */
    struct alignas(64) Stage
    {
        /** Parked here for input, and for room in its output ring. */
        Parker input;
        Parker room;
        /** Set once the worker left its loop. */
        std::atomic<bool> exited{false};
        /** pipeline.stageN.state / .items live-gauge mirrors. */
        std::atomic<int> state{0};
        std::atomic<std::uint64_t> items{0};

        // Stat handles written only by this stage's worker.
        Stat *busyNs = nullptr;
        Stat *itemCount = nullptr;
        Stat *pushWaits = nullptr;
        Stat *popWaits = nullptr;
        telemetry::Histogram *queueWaitNs = nullptr;
        telemetry::Histogram *serviceNs = nullptr;
        Stat *attrBusyNs = nullptr;
        Stat *attrStallUpNs = nullptr;
        Stat *attrStallDownNs = nullptr;
        Stat *attrIdleNs = nullptr;
        Stat *attrWallNs = nullptr;

        /** Worker-private: last publication time and what is owed. */
        double checkpointNs = 0.0;
        Pending pending;
    };

    /** Stage-summed stats every worker contributes to. */
    struct SharedStats
    {
        telemetry::Histogram *stageNs = nullptr;
        telemetry::Histogram *handoffItems = nullptr;
        Stat *handoffs = nullptr;
        Stat *pushWaits = nullptr;
        Stat *popWaits = nullptr;
    };

    double nowNs() const;
    void stageLoop(std::size_t s);
    bool collectIngress(Stage &st, HandoffBatch &in, Item &carry);
    bool popHandoff(std::size_t s, HandoffBatch &in);
    void waitForRoom(std::size_t s);
    void publish(Stage &st, const HandoffBatch *handoff);
    void complete(Job *job);

    PrimeSystem &system_;
    const std::size_t ringCapacity_;
    const std::chrono::steady_clock::time_point epoch_;

    std::vector<std::unique_ptr<Stage>> stages_;
    /** Ring s connects stage s to stage s + 1. */
    std::vector<std::unique_ptr<SpscRing<HandoffBatch>>> rings_;

    MpscRing<Item> ingress_;
    /** Submitters park here while the ingress is full. */
    Parker ingressRoom_;

    std::atomic<std::size_t> inflight_{0};
    std::atomic<std::uint64_t> nextRequestId_{0};
    std::atomic<bool> stopping_{false};

    /** Leaf lock of the stage-summed stats fold. */
    Mutex sharedMutex_;
    SharedStats shared_ PRIME_GUARDED_BY(sharedMutex_);

    // Per-batch totals, written only by the last stage's worker.
    telemetry::Histogram *e2eNs_ = nullptr;
    Stat *samples_ = nullptr;
    Stat *batches_ = nullptr;
    Stat *inferences_ = nullptr;
    Stat *bottleneckNs_ = nullptr;

    telemetry::MetricsRegistry *metrics_ = nullptr;
    std::vector<std::string> metricNames_;

    /** Declared last: the workers start once everything above exists
     *  and are joined before any of it is destroyed. */
    std::unique_ptr<WorkerGroup> workers_;
};

} // namespace prime::core

#endif // PRIME_PRIME_PIPELINE_HH
