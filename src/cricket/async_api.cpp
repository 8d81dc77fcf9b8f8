#include "cricket/async_api.hpp"

#include <utility>

#include "cricket/client.hpp"
#include "cricket_bounds.hpp"
#include "obs/metrics.hpp"

namespace cricket::core {

using cuda::Error;

namespace {

rpc::ClientOptions channel_options(const AsyncClientConfig& config) {
  rpc::ClientOptions opts;
  // pipeline.enabled=false degrades to a stop-and-wait window of one call:
  // the same wire behaviour as the synchronous client.
  opts.max_outstanding = config.pipeline.enabled ? config.pipeline.depth : 1;
  opts.batch.enabled = config.pipeline.enabled && config.pipeline.batching;
  // Reply pre-flight: reject replies larger than the procedure's proven
  // result bound before they are decoded.
  opts.bounds = proto::bounds::kProcBounds;
  opts.retry = config.retry;
  opts.reconnect = config.reconnect;
  return opts;
}

}  // namespace

AsyncRemoteCudaApi::AsyncRemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                                       sim::SimClock& clock,
                                       AsyncClientConfig config)
    : clock_(&clock),
      config_(std::move(config)),
      channel_(std::move(transport), proto::CRICKET_PROG,
               proto::CRICKETVERS_VERS, channel_options(config_)) {
  if (auto cred = tenant_credential(config_.tenant, config_.auth_stamp))
    channel_.set_credential(std::move(*cred));
}

AsyncRemoteCudaApi::~AsyncRemoteCudaApi() {
  try {
    drain();
  } catch (...) {
    // Destructor drain is best-effort; the channel teardown below copes
    // with a dead connection.
  }
}

void AsyncRemoteCudaApi::settle_front() {
  try {
    absorb(from_wire(pending_.front().get()));
  } catch (const rpc::RpcError& e) {
    absorb(cuda_error(e));
  } catch (...) {
    absorb(Error::kRpcFailure);
  }
  pending_.pop_front();
}

void AsyncRemoteCudaApi::reap_ready() {
  while (!pending_.empty() && pending_.front().ready()) settle_front();
}

void AsyncRemoteCudaApi::begin_rpc(bool posted) {
  ++stats_.api_calls;
  ++(posted ? stats_.pipelined : stats_.blocking);
  if (posted) {
    static obs::Counter& pipelined_calls = obs::Registry::global().counter(
        "cricket_client_api_calls_total", {{"mode", "pipelined"}});
    pipelined_calls.inc();
  } else {
    static obs::Counter& blocking_calls = obs::Registry::global().counter(
        "cricket_client_api_calls_total", {{"mode", "blocking"}});
    blocking_calls.inc();
  }
  clock_->advance(config_.flavor.per_call_ns);
  if (sticky_ == Error::kRpcFailure)
    throw rpc::TransportError("connection lost");
  reap_ready();
}

void AsyncRemoteCudaApi::absorb(Error err) {
  if (sticky_ == Error::kSuccess && err != Error::kSuccess) sticky_ = err;
}

Error AsyncRemoteCudaApi::drain() {
  ++stats_.drains;
  channel_.drain();
  while (!pending_.empty()) settle_front();
  return sticky_;
}

Error AsyncRemoteCudaApi::sync_point(Error err) {
  absorb(err);
  drain();
  return std::exchange(
      sticky_, sticky_ == Error::kRpcFailure ? sticky_ : Error::kSuccess);
}

void AsyncRemoteCudaApi::disconnect() {
  sticky_ = Error::kRpcFailure;
  channel_.transport().shutdown();
}

}  // namespace cricket::core
