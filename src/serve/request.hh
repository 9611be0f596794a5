/**
 * @file
 * Request/response types of the serving engine: what a client submits
 * through ServingEngine::trySubmit and what its completion callback
 * receives.  A request carries one inference input; the engine stamps
 * it at admission, coalesces it into a dynamic batch and answers with
 * the output tensor plus the request's measured latency decomposition.
 */

#ifndef PRIME_SERVE_REQUEST_HH
#define PRIME_SERVE_REQUEST_HH

#include <cstdint>
#include <functional>

#include "nn/tensor.hh"

namespace prime::serve {

/** One completed inference, delivered to the request's callback. */
struct Response
{
    /** The id trySubmit returned for this request. */
    std::uint64_t id = 0;
    /** The network output (bit-identical to PrimeSystem::run). */
    nn::Tensor output;
    /** Admission -> completion latency (the serving histogram's ns). */
    double e2eNs = 0.0;
    /** Admission -> batch-submission share of e2eNs (queueing in the
     *  engine's ring; the rest is the pipeline's ingress wait,
     *  execution and completion delivery). */
    double queueWaitNs = 0.0;
    /** Size of the dynamic batch this request rode in. */
    std::size_t batchSize = 0;
};

/**
 * Completion callback.  Invoked exactly once per *accepted* request,
 * after the batch it rode in finished executing, on the pipeline's
 * last-stage worker (the scheduler thread when the system runs
 * batches sequentially) -- so keep it short.  Rejected submissions get
 * no callback -- trySubmit returning false is the whole shed-load
 * signal.
 */
using CompletionFn = std::function<void(Response &&)>;

/** An admitted request as it rides the ingress ring. */
struct Request
{
    std::uint64_t id = 0;
    nn::Tensor input;
    CompletionFn onComplete;
    /** Admission stamp, ns since the engine's start() epoch. */
    double admitNs = 0.0;
};

} // namespace prime::serve

#endif // PRIME_SERVE_REQUEST_HH
