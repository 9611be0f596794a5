#include "prime/pipeline.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace prime::core {

namespace {

/** pipeline.stageN.state gauge values (tools/metrics_report.py decodes
 *  them); a parked worker reads as idle. */
enum StageState : int
{
    kStateIdle = 0,
    kStateBusy = 1,
    kStateStallUpstream = 2,
    kStateStallDownstream = 3,
    kStateDone = 4,
};

/** Samples the ingress holds before a submitter parks. */
constexpr std::size_t kIngressCapacity = 1024;

} // namespace

PipelineExecutor::PipelineExecutor(PrimeSystem &system,
                                   std::size_t ring_capacity)
    : system_(system), ringCapacity_(std::max<std::size_t>(1, ring_capacity)),
      epoch_(std::chrono::steady_clock::now()), ingress_(kIngressCapacity)
{
    const std::size_t n_stages = system_.stages().size();
    PRIME_ASSERT(n_stages >= 1, "no pipeline stages");
    for (std::size_t s = 0; s + 1 < n_stages; ++s)
        rings_.push_back(
            std::make_unique<SpscRing<HandoffBatch>>(ringCapacity_));

    // Every handle the workers write is resolved here, single-threaded,
    // so no worker ever does a creating map lookup.
    StatGroup &stats = system_.stats();
    StatGroup &attribution = stats.child("pipeline.attribution");
    for (std::size_t s = 0; s < n_stages; ++s) {
        auto st = std::make_unique<Stage>();
        const std::string pre = "pipeline.stage" + std::to_string(s);
        st->busyNs = &stats.get(pre + ".busy_ns");
        st->itemCount = &stats.get(pre + ".items");
        st->pushWaits = &stats.get(pre + ".push_waits");
        st->popWaits = &stats.get(pre + ".pop_waits");
        st->queueWaitNs = &stats.histogram(pre + ".queue_wait_ns");
        st->serviceNs = &stats.histogram(pre + ".service_ns");
        const std::string stage = "stage" + std::to_string(s);
        st->attrBusyNs = &attribution.get(stage + ".busy_ns");
        st->attrStallUpNs = &attribution.get(stage + ".stall_upstream_ns");
        st->attrStallDownNs =
            &attribution.get(stage + ".stall_downstream_ns");
        st->attrIdleNs = &attribution.get(stage + ".idle_ns");
        st->attrWallNs = &attribution.get(stage + ".wall_ns");
        stages_.push_back(std::move(st));
    }
    {
        MutexLock lock(sharedMutex_);
        shared_.stageNs = &stats.histogram("pipeline.stage_ns");
        shared_.handoffItems = &stats.histogram("pipeline.handoff_items");
        shared_.handoffs = &stats.get("pipeline.handoffs");
        shared_.pushWaits = &stats.get("pipeline.push_waits");
        shared_.popWaits = &stats.get("pipeline.pop_waits");
    }
    e2eNs_ = &stats.histogram("pipeline.e2e_latency_ns");
    samples_ = &stats.get("pipeline.samples");
    batches_ = &stats.get("pipeline.batches");
    inferences_ = &stats.get("run.inferences");
    bottleneckNs_ = &stats.get("pipeline.measured_bottleneck_ns");

    workers_ = std::make_unique<WorkerGroup>(
        "pipe-stage", n_stages, [this](std::size_t s) { stageLoop(s); });
}

PipelineExecutor::~PipelineExecutor()
{
    // Stage 0 leaves once the ingress is drained, and every later
    // stage once its upstream left and its input ring is empty, so
    // whatever was admitted still completes.
    stopping_.store(true, std::memory_order_seq_cst);
    stages_.front()->input.wake();
    workers_->join();
    unregisterMetrics();
}

double
PipelineExecutor::nowNs() const
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
PipelineExecutor::submit(std::span<const nn::Tensor> inputs,
                         std::span<const std::uint64_t> request_ids,
                         const PrimeSystem::RunBatchOptions &options,
                         PrimeSystem::BatchDone done)
{
    auto *job = new Job;  // deleted by complete() on the last stage
    job->inputs = inputs;
    const std::size_t n = inputs.size();
    PRIME_ASSERT(n > 0, "empty batch submitted");
    PRIME_ASSERT(request_ids.empty() || request_ids.size() == n,
                 "request ids for ", request_ids.size(), " of ", n,
                 " samples");
    job->outputs.resize(n);
    job->handoff = static_cast<std::size_t>(std::max(1, options.handoffBatch));
    job->stageBusyNs.assign(stages_.size(), 0.0);
    job->done = std::move(done);

    const std::uint64_t first_id =
        request_ids.empty()
            ? nextRequestId_.fetch_add(n, std::memory_order_relaxed)
            : 0;
    const std::size_t limit =
        options.maxQueued > 0
            ? static_cast<std::size_t>(options.maxQueued)
            : kIngressCapacity;
    Parker &stage0 = stages_.front()->input;
    // The last push hands the job to the pipeline: nothing below may
    // touch it afterwards.
    for (std::size_t i = 0; i < n; ++i) {
        Item item;
        item.job = job;
        item.index = i;
        item.requestId = request_ids.empty() ? first_id + i : request_ids[i];
        // A failed tryPush leaves the item intact for the next try.
        auto push = [&] {
            return ingress_.approxSize() < limit &&
                   ingress_.tryPush(std::move(item));
        };
        if (push())
            continue;
        // No room: stage 0 may be parked on this submitter's
        // unannounced samples, so wake it before waiting behind them.
        stage0.wake();
        ingressRoom_.await(push, [] { return false; }, kSpinNs);
    }
    stage0.wake();
}

/**
 * Stage 0's input: the next handoff's samples from the ingress -- up to
 * the batch's handoff size, its last sample, or a sample of another
 * batch (kept in @p carry for the next handoff).  False once stopping
 * with the ingress drained.
 */
bool
PipelineExecutor::collectIngress(Stage &st, HandoffBatch &in, Item &carry)
{
    Pending &p = st.pending;
    Item next;
    auto wait = [&] {
        const Parker::Outcome o = st.input.await(
            [&] { return ingress_.tryPop(next); },
            [this] { return stopping_.load(std::memory_order_seq_cst); },
            kSpinNs);
        p.stallUpNs += o.spinNs;
        p.parkedNs += o.parkedNs;
        if (o.ready)
            ingressRoom_.wake();  // room for a parked submitter
        return o.ready;
    };

    in.clear();
    if (carry.job) {
        in.push_back(std::move(carry));
        carry = Item();
    } else {
        st.state.store(kStateIdle, std::memory_order_relaxed);
        if (!wait())
            return false;
        in.push_back(std::move(next));
    }
    const Job &job = *in.front().job;
    while (in.back().index + 1 < job.inputs.size() &&
           (in.back().index + 1) % job.handoff != 0) {
        // The submitter is still pushing this batch: wait for it.
        st.state.store(kStateStallUpstream, std::memory_order_relaxed);
        if (!wait())
            break;
        if (next.job != &job) {
            carry = std::move(next);
            break;
        }
        in.push_back(std::move(next));
    }
    return true;
}

/** Stage s > 0: pop the next handoff.  False once upstream left and
 *  the ring is drained. */
bool
PipelineExecutor::popHandoff(std::size_t s, HandoffBatch &in)
{
    Stage &st = *stages_[s];
    Stage &upstream = *stages_[s - 1];
    SpscRing<HandoffBatch> &ring = *rings_[s - 1];
    if (!ring.tryPop(in)) {
        st.state.store(kStateStallUpstream, std::memory_order_relaxed);
        const Parker::Outcome o = st.input.await(
            [&] { return ring.tryPop(in); },
            [&] { return upstream.exited.load(std::memory_order_acquire); },
            kSpinNs);
        st.pending.stallUpNs += o.spinNs;
        st.pending.parkedNs += o.parkedNs;
        st.pending.popWaits += o.misses;
        if (!o.ready)
            return false;
    }
    upstream.room.wake();
    return true;
}

/** Stage s (not last): wait until ring s has room for one handoff.
 *  Downstream never leaves first, so there is no quit condition, and
 *  time parked here is a downstream stall, not off duty. */
void
PipelineExecutor::waitForRoom(std::size_t s)
{
    SpscRing<HandoffBatch> &ring = *rings_[s];
    if (!ring.full())
        return;
    Stage &st = *stages_[s];
    st.state.store(kStateStallDownstream, std::memory_order_relaxed);
    const Parker::Outcome o = st.room.await(
        [&ring] { return !ring.full(); }, [] { return false; }, kSpinNs);
    st.pending.stallDownNs += o.spinNs + o.parkedNs;
    st.pending.pushWaits += o.misses;
}

/**
 * Publish what this worker owes the stats since its last handoff, just
 * before the next one leaves (or the last stage completes its
 * samples): wall time = elapsed minus parked, idle = the wall not
 * covered by busy or stall time (slicing, stamping, scheduler noise;
 * clamped because the windows are timed independently).
 */
void
PipelineExecutor::publish(Stage &st, const HandoffBatch *handoff)
{
    Pending &p = st.pending;
    const double now = nowNs();
    const double wall = now - st.checkpointNs - p.parkedNs;
    st.checkpointNs = now;
    st.busyNs->add(p.busyNs);
    st.pushWaits->increment(p.pushWaits);
    st.popWaits->increment(p.popWaits);
    st.attrBusyNs->add(p.busyNs);
    st.attrStallUpNs->add(p.stallUpNs);
    st.attrStallDownNs->add(p.stallDownNs);
    st.attrIdleNs->add(
        std::max(0.0, wall - p.busyNs - p.stallUpNs - p.stallDownNs));
    st.attrWallNs->add(wall);
    {
        MutexLock lock(sharedMutex_);
        for (double ns : p.stageNs)
            shared_.stageNs->sample(ns);
        if (handoff) {
            shared_.handoffItems->sample(
                static_cast<double>(handoff->size()));
            shared_.handoffs->increment();
        }
        shared_.pushWaits->increment(p.pushWaits);
        shared_.popWaits->increment(p.popWaits);
    }
    p.stageNs.clear();
    p.busyNs = p.stallUpNs = p.stallDownNs = p.parkedNs = 0.0;
    p.pushWaits = p.popWaits = 0;
}

/** Last stage: a batch's final sample is through. */
void
PipelineExecutor::complete(Job *job)
{
    const std::size_t n = job->inputs.size();
    samples_->increment(n);
    batches_->increment();
    // Stat parity with the sequential path, which counts per run().
    inferences_->increment(n);
    // Measured stage bottleneck (mean wall ns of the slowest stage),
    // the empirical counterpart of PrimeModel::stageCosts' analytic
    // maximum.
    double bottleneck = 0.0;
    for (double busy : job->stageBusyNs)
        bottleneck = std::max(bottleneck, busy / static_cast<double>(n));
    bottleneckNs_->add(bottleneck);

    PrimeSystem::BatchDone done = std::move(job->done);
    std::vector<nn::Tensor> outputs = std::move(job->outputs);
    delete job;
    // Idle before the callback: a caller woken by it may restart or
    // stop the executor right away.
    inflight_.fetch_sub(1, std::memory_order_release);
    done(std::move(outputs));
}

void
PipelineExecutor::stageLoop(std::size_t s)
{
    Stage &st = *stages_[s];
    PrimeSystem::ExecContext &ctx = system_.stageContext(s);
    const bool first = s == 0;
    const bool last = s + 1 == stages_.size();
    HandoffBatch in, out;
    Item carry;
    st.checkpointNs = nowNs();
    while (first ? collectIngress(st, in, carry) : popHandoff(s, in)) {
        st.state.store(kStateBusy, std::memory_order_relaxed);
        Job &job = *in.front().job;
        const double dequeue = nowNs();
        if (!first)
            for (const Item &item : in)
                st.queueWaitNs->sample(dequeue - item.enqueueNs);
        out.reserve(in.size());
        // Attribution discipline: the clock is read around runStage
        // (already timed for pipeline.stage_ns) and on waits only, so
        // the fast path matches the unattributed loop.
        for (Item &item : in) {
            if (first)
                item.admitNs = dequeue;
            const double t0 = nowNs();
            nn::Tensor y = system_.runStage(
                first ? job.inputs[item.index] : item.tensor, s, ctx);
            const double t1 = nowNs();
            st.serviceNs->sample(t1 - t0);
            st.pending.stageNs.push_back(t1 - t0);
            st.pending.busyNs += t1 - t0;
            job.stageBusyNs[s] += t1 - t0;
            if (last) {
                e2eNs_->sample(t1 - item.admitNs);
                job.outputs[item.index] = std::move(y);
            } else {
                item.tensor = std::move(y);
                out.push_back(std::move(item));
            }
        }
        st.itemCount->increment(in.size());
        st.items.fetch_add(in.size(), std::memory_order_relaxed);
        if (last) {
            publish(st, nullptr);
            if (in.back().index + 1 == job.inputs.size())
                complete(&job);
            continue;
        }
        waitForRoom(s);
        publish(st, &out);
        const double enqueue = nowNs();
        for (Item &item : out)
            item.enqueueNs = enqueue;
        const bool pushed = rings_[s]->tryPush(std::move(out));
        PRIME_ASSERT(pushed, "stage ", s, " lost its ring slot");
        out = HandoffBatch();
        stages_[s + 1]->input.wake();
    }
    st.state.store(kStateDone, std::memory_order_relaxed);
    st.exited.store(true, std::memory_order_release);
    if (!last)
        stages_[s + 1]->input.wake();
}

void
PipelineExecutor::registerMetrics(telemetry::MetricsRegistry &registry)
{
    unregisterMetrics();
    metrics_ = &registry;
    for (std::size_t s = 0; s < rings_.size(); ++s) {
        const std::string name =
            "pipeline.ring" + std::to_string(s) + ".depth";
        registry.gauge(name, [ring = rings_[s].get()] {
            return static_cast<double>(ring->approxSize());
        });
        metricNames_.push_back(name);
    }
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        const std::string pre = "pipeline.stage" + std::to_string(s);
        const Stage *st = stages_[s].get();
        registry.gauge(pre + ".state", [st] {
            return static_cast<double>(
                st->state.load(std::memory_order_relaxed));
        });
        registry.counter(pre + ".items", [st] {
            return static_cast<double>(
                st->items.load(std::memory_order_relaxed));
        });
        metricNames_.push_back(pre + ".state");
        metricNames_.push_back(pre + ".items");
    }
    registry.gauge("pipeline.workers.running", [workers = workers_.get()] {
        return static_cast<double>(workers->runningWorkers());
    });
    metricNames_.push_back("pipeline.workers.running");
}

void
PipelineExecutor::unregisterMetrics()
{
    if (!metrics_)
        return;
    for (const std::string &name : metricNames_)
        metrics_->unregister(name);
    metricNames_.clear();
    metrics_ = nullptr;
}

} // namespace prime::core
