#include "serve/request.h"

#include "common/logging.h"

namespace spatial::serve
{

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Gemv:
        return "gemv";
      case RequestKind::GemvBatch:
        return "gemv_batch";
      case RequestKind::EsnStep:
        return "esn_step";
      case RequestKind::EsnSequence:
        return "esn_sequence";
    }
    return "?";
}

const char *
flushReasonName(FlushReason reason)
{
    switch (reason) {
      case FlushReason::Full:
        return "full";
      case FlushReason::Idle:
        return "idle";
      case FlushReason::Drain:
        return "drain";
      case FlushReason::Direct:
        return "direct";
    }
    return "?";
}

Request
Request::gemv(std::vector<std::int64_t> x)
{
    Request r;
    r.kind = RequestKind::Gemv;
    r.vec = std::move(x);
    return r;
}

Request
Request::gemvBatch(IntMatrix xs)
{
    Request r;
    r.kind = RequestKind::GemvBatch;
    r.batch = std::move(xs);
    return r;
}

Request
Request::esnStep(std::vector<std::int64_t> state,
                 std::vector<std::int64_t> inject, int post_shift,
                 int state_bits)
{
    Request r;
    r.kind = RequestKind::EsnStep;
    r.vec = std::move(state);
    r.inject = std::move(inject);
    r.postShift = post_shift;
    r.stateBits = state_bits;
    return r;
}

Request
Request::esnSequence(std::vector<std::int64_t> state0,
                     IntMatrix inject_seq, int post_shift, int state_bits)
{
    Request r;
    r.kind = RequestKind::EsnSequence;
    r.vec = std::move(state0);
    r.injectSeq = std::move(inject_seq);
    r.postShift = post_shift;
    r.stateBits = state_bits;
    return r;
}

std::vector<std::int64_t>
Response::vector() const
{
    SPATIAL_ASSERT(output.rows() >= 1, "empty response");
    std::vector<std::int64_t> out(output.cols());
    for (std::size_t c = 0; c < output.cols(); ++c)
        out[c] = output.at(0, c);
    return out;
}

} // namespace spatial::serve
