#include "serve/serving_engine.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"

namespace prime::serve {

namespace {

/** How long the scheduler spins on an empty ring before it parks:
 *  catches a burst's next request without a wake-up syscall. */
constexpr double kSchedulerSpinNs = 50e3;

} // namespace

ServingEngine::ServingEngine(core::PrimeSystem &system,
                             const ServingOptions &options)
    : system_(system), options_(options),
      inputCount_(static_cast<std::size_t>(
          system.topology().layers.front().inputCount())),
      ingress_(std::max<std::size_t>(1, options.queueCapacity)),
      epoch_(std::chrono::steady_clock::now())
{
    options_.maxBatch = std::max(1, options_.maxBatch);
    // At most one batch waits ahead of stage 0; the rest of a backlog
    // stays in this engine's ring, where it coalesces.
    if (options_.batch.maxQueued <= 0)
        options_.batch.maxQueued = options_.maxBatch;

    // Fixed stats schema: histograms exist (empty) from construction,
    // counters surface as read-time formulas over the atomics the
    // producer/scheduler/pipeline threads actually bump -- a Stat has
    // a single-writer contract the multi-threaded serving path cannot
    // honor directly.
    stats_.histogram("serving.e2e_latency_ns");
    stats_.histogram("serving.queue_wait_ns");
    stats_.histogram("serving.batch_size");
    stats_.formula("serving.accepted",
                   [this] { return static_cast<double>(accepted()); });
    stats_.formula("serving.rejected",
                   [this] { return static_cast<double>(rejected()); });
    stats_.formula("serving.rejected.shape",
                   [this] { return static_cast<double>(rejectedShape()); });
    stats_.formula("serving.rejected.full",
                   [this] { return static_cast<double>(rejectedFull()); });
    stats_.formula("serving.rejected.stopping", [this] {
        return static_cast<double>(rejectedStopping());
    });
    stats_.formula("serving.completed",
                   [this] { return static_cast<double>(completed()); });
    stats_.formula("serving.batches",
                   [this] { return static_cast<double>(batches()); });
    stats_.formula("serving.shed_rate", [this] {
        const double a = static_cast<double>(accepted());
        const double r = static_cast<double>(rejected());
        return a + r > 0.0 ? r / (a + r) : 0.0;
    });
}

ServingEngine::~ServingEngine()
{
    stop();
    // An engine destroyed without ever running drops what it admitted
    // but never scheduled (their callbacks do not fire); a started
    // engine's stop() above drained everything.
    Request leftover;
    while (ingress_.tryPop(leftover)) {
    }
}

double
ServingEngine::nowNs() const
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
ServingEngine::start()
{
    if (running_)
        return;
    stopping_.store(false, std::memory_order_seq_cst);
    running_ = true;
    scheduler_ = std::thread([this] { schedulerLoop(); });
}

void
ServingEngine::stop()
{
    if (!running_)
        return;
    // Close admission first (trySubmit rejects from here on), then let
    // the scheduler drain the ring and flush its partial batch; once
    // it exited no batch is submitted any more, so waiting for the
    // in-flight count to reach zero sees every completion.
    // seq_cst deliberately: pairs with trySubmit's pendingSubmits_
    // increment so the drain condition in popOrQuit is race-free.
    stopping_.store(true, std::memory_order_seq_cst);
    arrivals_.wake();
    scheduler_.join();
    {
        UniqueLock lock(drainMutex_);
        while (inflightBatches_.load(std::memory_order_acquire) != 0)
            drainCv_.wait(lock);
    }
    running_ = false;
}

std::optional<std::uint64_t>
ServingEngine::trySubmit(nn::Tensor input, CompletionFn on_complete)
{
    if (input.size() != inputCount_) {
        rejectedShape_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;  // would trip tiledMvm's shape assert
    }
    // The submit gate pairs with the scheduler's drain condition
    // (both seq_cst): a submitter that read stopping_ == false is
    // visible in pendingSubmits_ until its push completed, so the
    // scheduler cannot conclude "drained" while an accepted request
    // is still in flight into the ring.
    pendingSubmits_.fetch_add(1, std::memory_order_seq_cst);
    if (stopping_.load(std::memory_order_seq_cst)) {
        pendingSubmits_.fetch_sub(1, std::memory_order_seq_cst);
        rejectedStopping_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;  // admission closed
    }
    Request request;
    request.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    request.input = std::move(input);
    request.onComplete = std::move(on_complete);
    request.admitNs = nowNs();
    const std::uint64_t id = request.id;
    const bool pushed = ingress_.tryPush(std::move(request));
    pendingSubmits_.fetch_sub(1, std::memory_order_seq_cst);
    arrivals_.wake();
    if (!pushed) {
        rejectedFull_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;  // ingress full: load explicitly shed
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/**
 * Pop the next request, parked while the ring is idle.  Returns false
 * only when the engine is stopping and the ring is conclusively
 * drained: admission closed, no submitter mid-push (the gate), and a
 * final pop after both facts still found nothing.
 */
bool
ServingEngine::popOrQuit(Request &out)
{
    return arrivals_
        .await([&] { return ingress_.tryPop(out); },
               [this] {
                   return stopping_.load(std::memory_order_seq_cst) &&
                          pendingSubmits_.load(
                              std::memory_order_seq_cst) == 0;
               },
               kSchedulerSpinNs)
        .ready;
}

void
ServingEngine::schedulerLoop()
{
    const std::size_t max_batch =
        static_cast<std::size_t>(options_.maxBatch);
    for (;;) {
        Request first;
        if (!popOrQuit(first))
            break;
        // A batch is what is queued when it opens, up to maxBatch: it
        // never waits for co-riders.  Under load flush() parks on the
        // executor's ingress limit (RunBatchOptions::maxQueued), the
        // backlog builds in this ring meanwhile, and the next batch
        // takes it.
        std::vector<Request> batch;
        batch.reserve(max_batch);
        batch.push_back(std::move(first));
        Request next;
        while (batch.size() < max_batch && ingress_.tryPop(next))
            batch.push_back(std::move(next));
        flush(std::move(batch));
    }
}

void
ServingEngine::flush(std::vector<Request> &&requests)
{
    PRIME_SPAN(telemetry::globalTrace(), "serve.batch", "serve");
    const std::size_t n = requests.size();
    {
        MutexLock lock(statsMutex_);
        stats_.histogram("serving.batch_size")
            .sample(static_cast<double>(n));
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    // The completion owns the batch; shared because BatchDone is a
    // copyable std::function.
    auto batch = std::make_shared<Batch>();
    batch->requests = std::move(requests);
    batch->inputs.reserve(n);
    std::vector<std::uint64_t> ids;
    ids.reserve(n);
    for (Request &r : batch->requests) {
        batch->inputs.push_back(std::move(r.input));
        ids.push_back(r.id);
    }
    inflightBatches_.fetch_add(1, std::memory_order_relaxed);
    batch->dispatchNs = nowNs();
    system_.submitBatch(
        batch->inputs, ids, options_.batch,
        [this, batch](std::vector<nn::Tensor> &&outputs) {
            complete(*batch, std::move(outputs));
        });
}

void
ServingEngine::complete(Batch &batch, std::vector<nn::Tensor> &&outputs)
{
    const double done_ns = nowNs();
    const double dispatch_ns = batch.dispatchNs;
    std::vector<Request> &requests = batch.requests;
    const std::size_t n = requests.size();
    {
        MutexLock lock(statsMutex_);
        telemetry::Histogram &e2e =
            stats_.histogram("serving.e2e_latency_ns");
        telemetry::Histogram &wait =
            stats_.histogram("serving.queue_wait_ns");
        for (const Request &r : requests) {
            e2e.sample(done_ns - r.admitNs);
            wait.sample(dispatch_ns - r.admitNs);
        }
    }
    completed_.fetch_add(n, std::memory_order_relaxed);

    for (std::size_t i = 0; i < n; ++i) {
        Request &r = requests[i];
        if (!r.onComplete)
            continue;
        Response response;
        response.id = r.id;
        response.output = std::move(outputs[i]);
        response.e2eNs = done_ns - r.admitNs;
        response.queueWaitNs = dispatch_ns - r.admitNs;
        response.batchSize = n;
        r.onComplete(std::move(response));
    }
    // Last touch of the engine: stop() may return (and the engine go
    // away) as soon as this lock is released.
    MutexLock lock(drainMutex_);
    if (inflightBatches_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        drainCv_.notify_all();
}

void
ServingEngine::registerMetrics(telemetry::MetricsRegistry &registry)
{
    metricNames_.clear();
    registry.gauge("serving.queue.depth", [this] {
        return static_cast<double>(ingress_.approxSize());
    });
    metricNames_.push_back("serving.queue.depth");
    registry.gauge("serving.inflight_batches",
                   [this] { return static_cast<double>(inflightBatches()); });
    metricNames_.push_back("serving.inflight_batches");
    registry.counter("serving.accepted",
                     [this] { return static_cast<double>(accepted()); });
    metricNames_.push_back("serving.accepted");
    registry.counter("serving.rejected",
                     [this] { return static_cast<double>(rejected()); });
    metricNames_.push_back("serving.rejected");
    registry.counter("serving.rejected.shape",
                     [this] { return static_cast<double>(rejectedShape()); });
    metricNames_.push_back("serving.rejected.shape");
    registry.counter("serving.rejected.full",
                     [this] { return static_cast<double>(rejectedFull()); });
    metricNames_.push_back("serving.rejected.full");
    registry.counter("serving.rejected.stopping", [this] {
        return static_cast<double>(rejectedStopping());
    });
    metricNames_.push_back("serving.rejected.stopping");
    registry.counter("serving.completed",
                     [this] { return static_cast<double>(completed()); });
    metricNames_.push_back("serving.completed");
    registry.counter("serving.batches",
                     [this] { return static_cast<double>(batches()); });
    metricNames_.push_back("serving.batches");
}

void
ServingEngine::unregisterMetrics(telemetry::MetricsRegistry &registry)
{
    for (const std::string &name : metricNames_)
        registry.unregister(name);
    metricNames_.clear();
}

} // namespace prime::serve
