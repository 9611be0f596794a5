#include "serve/serving_engine.hh"

#include <algorithm>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"

namespace prime::serve {

namespace {

/** Idle nap of the scheduler when the ingress ring is empty: long
 *  enough not to starve co-located producers/dispatchers of a core,
 *  short against any realistic batch window. */
constexpr std::chrono::microseconds kIdleNap{20};

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
    options_.batchWindowUs = std::max(0, options_.batchWindowUs);
    options_.dispatchThreads = std::max(1, options_.dispatchThreads);

    // Fixed stats schema: histograms exist (empty) from construction,
    // counters surface as read-time formulas over the atomics the
    // producer/dispatch threads actually bump -- a Stat has a
    // single-writer contract the multi-threaded serving path cannot
    // honor directly.
    stats_.histogram("serving.e2e_latency_ns");
    stats_.histogram("serving.queue_wait_ns");
    stats_.histogram("serving.batch_size");
    stats_.formula("serving.accepted", [this] {
        return static_cast<double>(
            accepted_.load(std::memory_order_relaxed));
    });
    stats_.formula("serving.rejected", [this] {
        return static_cast<double>(rejected());
    });
    stats_.formula("serving.rejected.shape", [this] {
        return static_cast<double>(
            rejectedShape_.load(std::memory_order_relaxed));
    });
    stats_.formula("serving.rejected.full", [this] {
        return static_cast<double>(
            rejectedFull_.load(std::memory_order_relaxed));
    });
    stats_.formula("serving.rejected.stopping", [this] {
        return static_cast<double>(
            rejectedStopping_.load(std::memory_order_relaxed));
    });
    stats_.formula("serving.completed", [this] {
        return static_cast<double>(
            completed_.load(std::memory_order_relaxed));
    });
    stats_.formula("serving.batches", [this] {
        return static_cast<double>(
            batches_.load(std::memory_order_relaxed));
    });
    stats_.formula("serving.shed_rate", [this] {
        const double a = static_cast<double>(
            accepted_.load(std::memory_order_relaxed));
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
    {
        MutexLock lock(dispatchMutex_);
        dispatchDone_ = false;
    }
    running_ = true;
    scheduler_ = std::thread([this] { schedulerLoop(); });
    dispatchers_.reserve(
        static_cast<std::size_t>(options_.dispatchThreads));
    for (int i = 0; i < options_.dispatchThreads; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
}

void
ServingEngine::stop()
{
    if (!running_)
        return;
    // Close admission first (trySubmit rejects from here on), then let
    // the scheduler drain the ring and flush its partial batch; only
    // after it exited is the dispatch queue complete and safe to
    // close.
    // seq_cst deliberately: pairs with trySubmit's pendingSubmits_
    // increment so the drain condition in popOrQuit is race-free.
    stopping_.store(true, std::memory_order_seq_cst);
    scheduler_.join();
    {
        MutexLock lock(dispatchMutex_);
        dispatchDone_ = true;
    }
    dispatchCv_.notify_all();
    for (std::thread &t : dispatchers_)
        t.join();
    dispatchers_.clear();
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
    if (!pushed) {
        rejectedFull_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;  // ingress full: load explicitly shed
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/**
 * Pop the next request, napping while the ring is idle.  Returns false
 * only when the engine is stopping and the ring is conclusively
 * drained: admission closed, no submitter mid-push (the gate), and a
 * final pop after both facts still found nothing.
 */
bool
ServingEngine::popOrQuit(Request &out)
{
    for (;;) {
        if (ingress_.tryPop(out))
            return true;
        if (stopping_.load(std::memory_order_seq_cst) &&
            pendingSubmits_.load(std::memory_order_seq_cst) == 0)
            return ingress_.tryPop(out);
        std::this_thread::sleep_for(kIdleNap);
    }
}

void
ServingEngine::schedulerLoop()
{
    const double window_ns = 1e3 * options_.batchWindowUs;
    const std::size_t max_batch =
        static_cast<std::size_t>(options_.maxBatch);
    for (;;) {
        Request first;
        if (!popOrQuit(first))
            break;
        // A batch opens on its first request and closes at maxBatch
        // co-riders or when the latency budget since opening expires,
        // whichever comes first.
        Batch batch;
        batch.requests.reserve(max_batch);
        batch.requests.push_back(std::move(first));
        const double deadline = nowNs() + window_ns;
        while (batch.requests.size() < max_batch) {
            Request next;
            if (ingress_.tryPop(next)) {
                batch.requests.push_back(std::move(next));
                continue;
            }
            // Stopping means no co-rider will ever arrive: close now.
            if (stopping_.load(std::memory_order_acquire) ||
                nowNs() >= deadline)
                break;
            std::this_thread::yield();
        }
        flush(std::move(batch));
    }
}

void
ServingEngine::flush(Batch &&batch)
{
    {
        MutexLock lock(statsMutex_);
        stats_.histogram("serving.batch_size")
            .sample(static_cast<double>(batch.requests.size()));
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    pendingBatches_.fetch_add(1, std::memory_order_relaxed);
    {
        MutexLock lock(dispatchMutex_);
        dispatchQueue_.push_back(std::move(batch));
    }
    dispatchCv_.notify_one();
}

void
ServingEngine::dispatchLoop()
{
    for (;;) {
        Batch batch;
        {
            UniqueLock lock(dispatchMutex_);
            while (dispatchQueue_.empty() && !dispatchDone_)
                dispatchCv_.wait(lock);
            if (dispatchQueue_.empty())
                return;  // done and drained
            batch = std::move(dispatchQueue_.front());
            dispatchQueue_.pop_front();
        }
        pendingBatches_.fetch_sub(1, std::memory_order_relaxed);
        inflightBatches_.fetch_add(1, std::memory_order_relaxed);
        execute(std::move(batch));
        inflightBatches_.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
ServingEngine::execute(Batch &&batch)
{
    PRIME_SPAN(telemetry::globalTrace(), "serve.batch", "serve");
    const std::size_t n = batch.requests.size();
    std::vector<nn::Tensor> inputs;
    inputs.reserve(n);
    for (Request &r : batch.requests)
        inputs.push_back(std::move(r.input));

    const double dispatch_ns = nowNs();
    std::vector<nn::Tensor> outputs;
    {
        // One functional machine: concurrent dispatchers serialize
        // here (PrimeSystem is not reentrant), overlapping their
        // completion/stats work with the next batch's execution.
        MutexLock hw(hardwareMutex_);
        outputs = system_.runBatch(std::span<const nn::Tensor>(inputs),
                                   options_.batch);
    }
    const double done_ns = nowNs();

    {
        MutexLock lock(statsMutex_);
        telemetry::Histogram &e2e =
            stats_.histogram("serving.e2e_latency_ns");
        telemetry::Histogram &wait =
            stats_.histogram("serving.queue_wait_ns");
        for (const Request &r : batch.requests) {
            e2e.sample(done_ns - r.admitNs);
            wait.sample(dispatch_ns - r.admitNs);
        }
    }
    completed_.fetch_add(n, std::memory_order_relaxed);

    for (std::size_t i = 0; i < n; ++i) {
        Request &r = batch.requests[i];
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
}

void
ServingEngine::registerMetrics(telemetry::MetricsRegistry &registry)
{
    metricNames_.clear();
    registry.gauge("serving.queue.depth", [this] {
        return static_cast<double>(ingress_.approxSize());
    });
    metricNames_.push_back("serving.queue.depth");
    registry.gauge("serving.pending_batches", [this] {
        return static_cast<double>(
            pendingBatches_.load(std::memory_order_relaxed));
    });
    metricNames_.push_back("serving.pending_batches");
    registry.gauge("serving.inflight_batches", [this] {
        return static_cast<double>(
            inflightBatches_.load(std::memory_order_relaxed));
    });
    metricNames_.push_back("serving.inflight_batches");
    registry.counter("serving.accepted", [this] {
        return static_cast<double>(
            accepted_.load(std::memory_order_relaxed));
    });
    metricNames_.push_back("serving.accepted");
    registry.counter("serving.rejected", [this] {
        return static_cast<double>(rejected());
    });
    metricNames_.push_back("serving.rejected");
    registry.counter("serving.rejected.shape", [this] {
        return static_cast<double>(
            rejectedShape_.load(std::memory_order_relaxed));
    });
    metricNames_.push_back("serving.rejected.shape");
    registry.counter("serving.rejected.full", [this] {
        return static_cast<double>(
            rejectedFull_.load(std::memory_order_relaxed));
    });
    metricNames_.push_back("serving.rejected.full");
    registry.counter("serving.rejected.stopping", [this] {
        return static_cast<double>(
            rejectedStopping_.load(std::memory_order_relaxed));
    });
    metricNames_.push_back("serving.rejected.stopping");
    registry.counter("serving.completed", [this] {
        return static_cast<double>(
            completed_.load(std::memory_order_relaxed));
    });
    metricNames_.push_back("serving.completed");
    registry.counter("serving.batches", [this] {
        return static_cast<double>(
            batches_.load(std::memory_order_relaxed));
    });
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
