#include "dist/shard_router.h"

#include <algorithm>
#include <functional>
#include <future>
#include <optional>
#include <utility>

#include "engine/list_ops.h"
#include "net/socket.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/random.h"

namespace approxql::dist {

namespace {

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Codes a TRANSPORT failure may retry on. kResourceExhausted is
/// deliberately absent: at the transport layer it means the request
/// exceeded the frame limit, which a retry cannot fix.
bool TransportTransient(util::StatusCode code) {
  return code == util::StatusCode::kUnavailable ||
         code == util::StatusCode::kDeadlineExceeded ||
         code == util::StatusCode::kIoError;
}

/// Superseded epochs kept translatable per shard (ManifestView).
constexpr size_t kManifestHistoryDepth = 32;
/// Epoch-reconciliation rounds one shard may take per Execute (each a
/// slice fetch, a re-query, or a fetch whose slice still lacked the
/// answer's epoch followed by a re-query) before it is declared
/// missing.
constexpr int kMaxEpochRounds = 3;

/// Deadline for one manifest-slice fetch: the attempt deadline, or 2 s
/// when attempts are bounded only by the query.
int SliceFetchDeadlineMs(const RouterOptions& options) {
  return options.attempt_deadline_ms > 0 ? options.attempt_deadline_ms : 2000;
}

/// The router's own manifest: the fingerprint every shard reply must
/// carry, the cost model and the shard count, with no spans — all id
/// translation happens through the epoch-versioned view.
shard::LayoutManifest Spanless(uint32_t fingerprint,
                               const cost::CostModel& model,
                               size_t num_shards) {
  return shard::LayoutManifest(
      fingerprint, model, std::vector<std::vector<shard::DocSpan>>(num_shards));
}

/// All a scatter shares with the transports' IO threads: their
/// callbacks only append events here and notify, and Execute's thread
/// alone decides what each event means. Heap-held via shared_ptr so an
/// event that arrives after Execute returned (overall deadline, strict
/// fail-fast) lands in still-valid memory and is never read.
struct ScatterState {
  struct Event {
    size_t shard = 0;
    /// The attempt the event belongs to: its reply, or the slice fetch
    /// its answer started. Events of superseded attempts are dropped.
    int attempt = 0;
    /// The shard's reply; nullopt for a finished slice fetch, whose
    /// slice (if it came) is already installed in the view.
    std::optional<util::Result<net::WireShardAnswer>> answer;
  };

  void Deliver(Event event) {
    util::MutexLock lock(&mu);
    mailbox.push_back(std::move(event));
    cv.NotifyOne();
  }

  util::Mutex mu;
  util::CondVar cv;
  std::vector<Event> mailbox GUARDED_BY(mu);
};

}  // namespace

ShardRouter::ShardRouter(const shard::ShardedDatabase& layout,
                         RouterOptions options)
    : ShardRouter(layout.layout(), std::move(options)) {}

ShardRouter::ShardRouter(const shard::LayoutManifest& manifest,
                         RouterOptions options)
    : ShardRouter(Spanless(manifest.fingerprint(), manifest.cost_model(),
                           manifest.num_shards()),
                  std::move(options), /*live=*/false) {
  // Immutable shard servers stamp every answer with epoch 0 and never
  // publish another, so these slices are the only ones the view needs.
  for (size_t i = 0; i < manifest.num_shards(); ++i) {
    view_->InstallSlice(static_cast<uint32_t>(i), /*epoch=*/0,
                        manifest.shard_spans(i));
  }
}

ShardRouter::ShardRouter(const cluster::ClusterConfig& config,
                         RouterOptions options)
    : ShardRouter(Spanless(cluster::ClusterFingerprint(config.model,
                                                       config.num_shards),
                           config.model, config.num_shards),
                  std::move(options), /*live=*/true) {}

ShardRouter::ShardRouter(shard::LayoutManifest manifest, RouterOptions options,
                         bool live)
    : manifest_(std::move(manifest)),
      options_(std::move(options)),
      live_(live),
      view_(std::make_unique<cluster::ManifestView>(manifest_.num_shards(),
                                                    kManifestHistoryDepth)),
      refetch_inflight_(
          std::make_unique<std::atomic<bool>[]>(options_.shards.size())),
      queries_(metrics_.RegisterCounter("dist_queries")),
      degraded_(metrics_.RegisterCounter("dist_degraded")),
      strict_failures_(metrics_.RegisterCounter("dist_strict_failures")),
      shard_calls_(metrics_.RegisterCounter("dist_shard_calls")),
      shard_retries_(metrics_.RegisterCounter("dist_shard_retries")),
      shard_failures_(metrics_.RegisterCounter("dist_shard_failures")),
      shards_missing_(metrics_.RegisterCounter("dist_shards_missing")),
      bound_updates_(metrics_.RegisterCounter("dist_bound_updates")),
      health_pings_(metrics_.RegisterCounter("dist_health_pings")),
      health_ping_failures_(
          metrics_.RegisterCounter("dist_health_ping_failures")),
      ingest_calls_(metrics_.RegisterCounter("dist_ingest_calls")),
      ingest_failures_(metrics_.RegisterCounter("dist_ingest_failures")),
      manifest_fetches_(metrics_.RegisterCounter("dist_manifest_fetches")),
      manifest_fetch_failures_(
          metrics_.RegisterCounter("dist_manifest_fetch_failures")),
      manifest_deltas_(metrics_.RegisterCounter("dist_manifest_deltas")),
      manifest_delta_gaps_(
          metrics_.RegisterCounter("dist_manifest_delta_gaps")),
      epoch_requeries_(metrics_.RegisterCounter("dist_epoch_requeries")),
      shards_up_(metrics_.RegisterGauge("dist_shards_up")),
      shards_down_(metrics_.RegisterGauge("dist_shards_down")),
      scatter_us_(metrics_.RegisterHistogram("dist_scatter_us")) {
  backends_.reserve(options_.shards.size());
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    RemoteShardOptions shard;
    shard.host = options_.shards[i].host;
    shard.port = options_.shards[i].port;
    shard.connect_timeout_ms = options_.connect_timeout_ms;
    shard.max_frame_bytes = options_.max_frame_bytes;
    shard.failures_to_down = options_.failures_to_down;
    shard.expected_fingerprint = manifest_.fingerprint();
    shard.on_delta = [this, i](const net::WireManifestDelta& delta) {
      OnDelta(i, delta);
    };
    backends_.push_back(std::make_unique<RemoteShardBackend>(
        static_cast<uint32_t>(i), std::move(shard)));
  }
  shards_up_->Set(static_cast<int64_t>(backends_.size()));
}

ShardRouter::~ShardRouter() { Shutdown(); }

util::Status ShardRouter::Start() {
  if (options_.shards.size() != manifest_.num_shards()) {
    return util::Status::InvalidArgument(
        "router has " + std::to_string(options_.shards.size()) +
        " endpoints but the layout has " +
        std::to_string(manifest_.num_shards()) + " shards");
  }
  for (auto& backend : backends_) {
    RETURN_IF_ERROR(backend->Start());
  }
  if (options_.health_period_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  started_ = true;
  // Bootstrap the slices the view lacks (and their delta subscriptions)
  // without blocking startup: a query racing the fetches fetches the
  // slice its answer needs itself.
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (!view_->known(static_cast<uint32_t>(i))) RefetchSliceAsync(i);
  }
  return util::Status::OK();
}

void ShardRouter::Shutdown() {
  {
    util::MutexLock lock(&health_mu_);
    health_stop_ = true;
    health_cv_.NotifyAll();
  }
  if (health_thread_.joinable()) health_thread_.join();
  // Joining each transport flushes its outstanding callbacks, so no
  // reply handler can run against a dead router after this returns.
  for (auto& backend : backends_) backend->Shutdown();
}

util::Result<RoutedResult> ShardRouter::Execute(
    const std::string& query_text, engine::Strategy strategy, size_t n,
    int64_t deadline_ms, const std::vector<uint64_t>& min_epochs) const {
  APPROXQL_CHECK(started_) << "ShardRouter::Execute before Start";
  queries_->Increment();
  const Clock::time_point started = Clock::now();
  const size_t num_shards = backends_.size();
  const Clock::time_point overall_deadline =
      deadline_ms > 0 ? started + std::chrono::milliseconds(deadline_ms)
                      : Clock::time_point::max();
  const bool share_bound = engine::SharesCostBound(strategy, num_shards, n);
  const auto floor_of = [&min_epochs](size_t i) -> uint64_t {
    return i < min_epochs.size() ? min_epochs[i] : 0;
  };
  // `limit` capped by what is left of the overall deadline (at least
  // 1 ms); a `limit` <= 0 has no cap of its own.
  const auto capped_ms = [overall_deadline](int64_t limit) -> int64_t {
    if (overall_deadline == Clock::time_point::max()) return limit;
    const int64_t remaining = std::max<int64_t>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(
               overall_deadline - Clock::now())
               .count());
    return limit > 0 ? std::min(limit, remaining) : remaining;
  };

  // The scatter's whole state: every field below is read and written by
  // this thread only. The IO threads reach none of it; they deliver.
  struct Slot {
    enum class State {
      kPending,    // an attempt is in flight
      kFetching,   // its answer waits for the slice of its epoch
      kRetryWait,  // failed transiently; waiting out the backoff
      kDone,
    };
    State state = State::kPending;
    int attempt = 0;  // attempt the in-flight call belongs to
    int epoch_rounds = 0;
    Clock::time_point retry_at;
    /// Done, with `translated` ready to merge.
    bool ok = false;
    /// The failure is the query's own fault (parse/invalid argument):
    /// it would fail identically on every shard, so it fails the query
    /// rather than degrading the answer.
    bool query_error = false;
    util::Status error = util::Status::OK();
    net::WireShardAnswer answer;
    /// The answer's roots as global ids, translated through the slice
    /// of exactly answer.backend_epoch.
    std::vector<engine::RootCost> translated;
  };
  std::vector<Slot> slots(num_shards);
  // The execution's shared inclusive cost bound: min'd with every full
  // answer's n-th cost and snapshotted by every (re)launch.
  cost::Cost bound = cost::kInfinite;
  uint32_t retries = 0;
  auto state = std::make_shared<ScatterState>();
  util::Rng rng;
  rng.Seed(reinterpret_cast<uintptr_t>(state.get()) ^
           static_cast<uint64_t>(started.time_since_epoch().count()));

  net::WireShardQuery query;
  query.query = query_text;
  query.strategy = strategy;
  query.n = n == SIZE_MAX ? UINT64_MAX : static_cast<uint64_t>(n);
  // Every launch runs with no lock held: a shut-down transport invokes
  // its callback inline, and the callback takes state->mu.
  const auto launch = [&](size_t i) {
    shard_calls_->Increment();
    // Opportunistic bound propagation: a retry (and every attempt issued
    // after some shard already answered) carries the tightest bound
    // known so far — the shard prunes with it exactly like an in-process
    // scatter participant.
    query.cost_bound = share_bound ? bound : cost::kInfinite;
    const int64_t attempt_deadline = capped_ms(options_.attempt_deadline_ms);
    query.deadline_ms = attempt_deadline;  // server-side enforcement too
    backends_[i]->CallShardQuery(
        query, static_cast<int>(attempt_deadline),
        [state, i, attempt = slots[i].attempt](
            util::Result<net::WireShardAnswer> result) {
          state->Deliver({i, attempt, std::move(result)});
        });
  };
  // Asks shard i again at once, no backoff: its answer predates the
  // caller's floor, or the slice of its epoch cannot be had.
  const auto requery = [&](size_t i) {
    epoch_requeries_->Increment();
    ++retries;
    ++slots[i].attempt;
    slots[i].state = Slot::State::kPending;
    launch(i);
  };
  // Settles shard i's answer through the view at exactly its epoch. A
  // root outside that slice (a real inconsistency) fails the shard,
  // typed: never a guess onto a neighbouring document's global id. An
  // answer below the caller's floor is asked again; one whose epoch the
  // view holds no slice for fetches it first. `fetched`: that fetch has
  // finished, and a slice still missing means the server no longer
  // holds the epoch (racing publishes outran its history) — a fresh
  // answer comes with a fresh epoch.
  const auto settle = [&](size_t i, bool fetched) {
    Slot& slot = slots[i];
    const uint64_t epoch = slot.answer.backend_epoch;
    // Read-your-writes: an answer that predates the caller's own acked
    // write on this shard is never returned.
    const bool below_floor = epoch < floor_of(i);
    if (!below_floor) {
      std::vector<engine::RootCost> list;
      list.reserve(slot.answer.answers.size());
      util::Status failed = util::Status::OK();
      for (const net::WireAnswer& a : slot.answer.answers) {
        util::Result<doc::NodeId> global =
            view_->ToGlobal(static_cast<uint32_t>(i), epoch, a.root);
        if (!global.ok()) {
          failed = global.status();
          break;
        }
        // ToGlobal is strictly increasing in the local id within a span
        // table, so the shard's (cost, root)-sorted list stays sorted.
        list.push_back({*global, a.cost});
      }
      if (failed.ok()) {
        slot.state = Slot::State::kDone;
        slot.ok = true;
        slot.translated = std::move(list);
        return;
      }
      if (failed.code() != util::StatusCode::kUnavailable) {
        slot.state = Slot::State::kDone;
        slot.error = std::move(failed);
        return;
      }
    }
    if (fetched) {
      requery(i);  // the rest of the fetch's round
      return;
    }
    if (slot.epoch_rounds >= kMaxEpochRounds) {
      const std::string at_epoch =
          "shard " + std::to_string(i) + " answered at epoch " +
          std::to_string(epoch) +
          (below_floor ? " below the caller's floor " +
                             std::to_string(floor_of(i))
                       : ", for which no manifest slice could be had") +
          " after " + std::to_string(slot.epoch_rounds) + " resync rounds";
      slot.state = Slot::State::kDone;
      slot.error = util::Status::Unavailable(at_epoch);
      return;
    }
    ++slot.epoch_rounds;
    if (below_floor) {
      requery(i);
      return;
    }
    slot.state = Slot::State::kFetching;
    FetchSlice(i, static_cast<int>(capped_ms(SliceFetchDeadlineMs(options_))),
               [state, i, attempt = slot.attempt](const util::Status&) {
                 state->Deliver({i, attempt, std::nullopt});
               });
  };
  // Classifies shard i's reply to its in-flight attempt.
  const auto on_reply = [&](size_t i,
                            util::Result<net::WireShardAnswer>& result) {
    Slot& slot = slots[i];
    util::Status failure = util::Status::OK();
    bool permanent = false;
    bool query_error = false;
    if (!result.ok()) {
      failure = result.status();
      permanent = !TransportTransient(failure.code());
    } else {
      const util::Status status =
          net::StatusFromWire(result->status_code, result->status_message);
      if (status.ok() && !result->truncated) {
        const cost::Cost achieved = result->achieved_bound;
        if (share_bound && cost::IsFinite(achieved) && achieved < bound) {
          bound = achieved;
          bound_updates_->Increment();
        }
        slot.answer = std::move(*result);
        settle(i, /*fetched=*/false);
        return;
      }
      if (status.ok()) {
        // Truncated: a correct but short prefix is useless for the
        // global merge — a failed attempt, worth retrying with more of
        // the overall budget.
        failure = util::Status::DeadlineExceeded(
            "shard answer truncated by its server-side deadline");
      } else {
        failure = status;
        const util::StatusCode code = status.code();
        query_error = code == util::StatusCode::kInvalidArgument ||
                      code == util::StatusCode::kParseError;
        permanent = query_error;
        // The shard is alive but answering "going away"/"overloaded" —
        // that is routing-relevant even though the transport and
        // fingerprint checks passed.
        if (code == util::StatusCode::kUnavailable) {
          backends_[i]->RecordOutcome(false);
        }
      }
    }
    shard_failures_->Increment();
    slot.error = failure;
    if (!permanent && slot.attempt < options_.max_retries) {
      slot.state = Slot::State::kRetryWait;
      slot.retry_at = Clock::now() + std::chrono::milliseconds(
                                         net::JitteredBackoffMs(
                                             slot.attempt,
                                             options_.retry_backoff_ms,
                                             options_.retry_backoff_cap_ms,
                                             rng.Next()));
    } else {
      slot.state = Slot::State::kDone;
      slot.query_error = query_error;
    }
  };
  // Ends every unfinished slot with `error`.
  const auto abandon = [&slots](const util::Status& error) {
    for (Slot& slot : slots) {
      if (slot.state != Slot::State::kDone) {
        slot.state = Slot::State::kDone;
        slot.error = error;
      }
    }
  };

  for (size_t i = 0; i < num_shards; ++i) {
    if (options_.health_period_ms > 0 &&
        backends_[i]->health() == ShardHealth::kDown) {
      // No timeout burned on a shard the health checker already
      // declared dead; a ping revives it for later queries. With the
      // checker off nothing else would, so this query's attempt is the
      // probe.
      slots[i].state = Slot::State::kDone;
      slots[i].error = util::Status::Unavailable(
          "shard " + std::to_string(i) + " (" + backends_[i]->endpoint() +
          ") is DOWN");
    } else {
      launch(i);
    }
  }

  // Coordinate: process each delivered event, relaunch retries whose
  // backoff elapsed, enforce the overall deadline and strict fail-fast,
  // then sleep until the next event or timer.
  std::vector<ScatterState::Event> events;
  for (;;) {
    for (ScatterState::Event& event : events) {
      Slot& slot = slots[event.shard];
      if (slot.attempt != event.attempt) continue;  // superseded attempt
      if (event.answer.has_value()) {
        if (slot.state == Slot::State::kPending) {
          on_reply(event.shard, *event.answer);
        }
      } else if (slot.state == Slot::State::kFetching) {
        settle(event.shard, /*fetched=*/true);
      }
    }
    events.clear();

    const Clock::time_point now = Clock::now();
    bool finished = true;
    bool hard_failure = false;
    Clock::time_point next = Clock::time_point::max();
    for (size_t i = 0; i < num_shards; ++i) {
      Slot& slot = slots[i];
      switch (slot.state) {
        case Slot::State::kPending:
        case Slot::State::kFetching:
          finished = false;
          break;
        case Slot::State::kRetryWait:
          if (backends_[i]->health() == ShardHealth::kDown) {
            // Outcome-driven fast-DOWN: the backend crossed its
            // consecutive-failure threshold (fed by this query's own
            // attempts, a concurrent query's, or a failed ping) while
            // this slot waited out its backoff. A relaunch would burn
            // another full attempt deadline against a dead endpoint —
            // declare the slot missing now; the health prober's next
            // successful ping (or, with the checker off, the next
            // query's first attempt) revives the shard.
            slot.state = Slot::State::kDone;
            slot.error = util::Status::Unavailable(
                "shard " + std::to_string(i) + " (" +
                backends_[i]->endpoint() + ") went DOWN during retry backoff");
            hard_failure = true;
            break;
          }
          finished = false;
          if (now >= slot.retry_at) {
            shard_retries_->Increment();
            ++retries;
            ++slot.attempt;
            slot.state = Slot::State::kPending;
            launch(i);
          } else {
            next = std::min(next, slot.retry_at);
          }
          break;
        case Slot::State::kDone:
          if (!slot.ok && !slot.query_error) hard_failure = true;
          break;
      }
    }
    if (finished) break;
    if (options_.strict && hard_failure) {
      // Fail fast: the query is already lost, so don't wait out the
      // slowest shard's timeout to say so.
      abandon(util::Status::Unavailable(
          "abandoned: strict scatter failing fast"));
      break;
    }
    if (overall_deadline != Clock::time_point::max()) {
      if (now >= overall_deadline) {
        abandon(util::Status::DeadlineExceeded("scatter deadline expired"));
        break;
      }
      next = std::min(next, overall_deadline);
    }
    util::MutexLock lock(&state->mu);
    if (state->mailbox.empty()) {
      if (next == Clock::time_point::max()) {
        state->cv.Wait(&state->mu);
      } else {
        state->cv.WaitFor(&state->mu, next - now);
      }
    }
    events.swap(state->mailbox);
  }

  RoutedResult out;
  std::vector<std::vector<engine::RootCost>> lists;
  util::Status query_error = util::Status::OK();
  bool has_query_error = false;
  util::Status last_failure = util::Status::OK();
  uint64_t min_answer_epoch = UINT64_MAX;
  for (size_t i = 0; i < num_shards; ++i) {
    Slot& slot = slots[i];
    if (slot.ok) {
      lists.push_back(std::move(slot.translated));
      min_answer_epoch = std::min(min_answer_epoch, slot.answer.backend_epoch);
    } else if (slot.query_error) {
      has_query_error = true;
      query_error = slot.error;
    } else {
      out.missing_shards.push_back(static_cast<uint32_t>(i));
      last_failure = slot.error;
    }
  }
  out.final_bound = bound;
  out.retries = retries;
  if (min_answer_epoch != UINT64_MAX) out.backend_epoch = min_answer_epoch;

  scatter_us_->Record(static_cast<uint64_t>(MicrosSince(started)));
  if (has_query_error) return query_error;
  if (out.missing_shards.size() == num_shards) {
    shards_missing_->Increment(num_shards);
    return util::Status::Unavailable(
        "all " + std::to_string(num_shards) +
        " shards unavailable; last error: " + last_failure.message());
  }
  if (!out.missing_shards.empty()) {
    shards_missing_->Increment(out.missing_shards.size());
    if (options_.strict) {
      strict_failures_->Increment();
      std::string which;
      for (uint32_t i : out.missing_shards) {
        if (!which.empty()) which += ",";
        which += std::to_string(i);
      }
      return util::Status::Unavailable(
          "strict mode: shard(s) " + which +
          " unavailable: " + last_failure.message());
    }
    degraded_->Increment();
    out.degraded = true;
  }

  const std::vector<engine::RootCost> merged = engine::MergeTopN(lists, n);
  out.answers.reserve(merged.size());
  for (const engine::RootCost& rc : merged) {
    out.answers.push_back({rc.root, rc.cost});
  }
  return out;
}

void ShardRouter::UpdateHealthGauges() {
  int64_t up = 0, down = 0;
  for (const auto& backend : backends_) {
    switch (backend->health()) {
      case ShardHealth::kUp:
        ++up;
        break;
      case ShardHealth::kDown:
        ++down;
        break;
      case ShardHealth::kSuspect:
        break;
    }
  }
  shards_up_->Set(up);
  shards_down_->Set(down);
}

void ShardRouter::HealthLoop() {
  health_mu_.Lock();
  while (!health_stop_) {
    health_mu_.Unlock();
    for (size_t i = 0; i < backends_.size(); ++i) {
      health_pings_->Increment();
      backends_[i]->CallPing(
          options_.ping_deadline_ms,
          [this, i](util::Result<net::WirePong> pong) {
            // RemoteShardBackend already fed the health machine; only
            // the counter (and epoch staleness) is ours.
            if (!pong.ok()) {
              health_ping_failures_->Increment();
              return;
            }
            if (pong->epoch > view_->epoch(static_cast<uint32_t>(i))) {
              // The shard advanced past our view: deltas were lost
              // (dropped push, or the transport reconnected and the
              // subscription died with the old connection). A full
              // fetch resyncs AND re-subscribes.
              RefetchSliceAsync(i);
            }
          });
    }
    UpdateHealthGauges();
    health_mu_.Lock();
    if (health_stop_) break;
    health_cv_.WaitFor(&health_mu_,
                       std::chrono::milliseconds(options_.health_period_ms));
  }
  health_mu_.Unlock();
}

void ShardRouter::OnDelta(size_t i, const net::WireManifestDelta& delta) {
  if (delta.shard_index != i) return;
  manifest_deltas_->Increment();
  if (!view_->ApplyDelta(delta)) {
    // Gap (missed/reordered deltas) or inconsistency with the held
    // slice: the delta stream is no longer trustworthy as-is; a full
    // fetch re-bases it. Answers racing this window translate through
    // history or trigger their own fetch in Execute.
    manifest_delta_gaps_->Increment();
    RefetchSliceAsync(i);
  }
}

void ShardRouter::FetchSlice(size_t i, int deadline_ms,
                             std::function<void(const util::Status&)> done)
    const {
  manifest_fetches_->Increment();
  backends_[i]->CallManifestFetch(
      deadline_ms, [this, i, done = std::move(done)](
                       util::Result<net::WireManifestSlice> slice) {
        if (!slice.ok()) {
          manifest_fetch_failures_->Increment();
          done(slice.status());
          return;
        }
        // InstallSlice never regresses, so a fetch that raced another
        // fetch (or a delta) cannot roll the view back.
        view_->InstallSlice(static_cast<uint32_t>(i), slice->epoch,
                            std::move(slice->spans));
        done(util::Status::OK());
      });
}

void ShardRouter::RefetchSliceAsync(size_t i) {
  if (refetch_inflight_[i].exchange(true, std::memory_order_acq_rel)) {
    return;  // a fetch for this shard is already on the wire
  }
  // A failure leaves the view stale, which heals itself: the next delta
  // gap, stale pong, or an answer at the missing epoch fetches again.
  FetchSlice(i, SliceFetchDeadlineMs(options_),
             [this, i](const util::Status&) {
               refetch_inflight_[i].store(false, std::memory_order_release);
             });
}

util::Status ShardRouter::FetchSliceBlocking(size_t i,
                                             int deadline_ms) const {
  auto done = std::make_shared<std::promise<util::Status>>();
  std::future<util::Status> fetched = done->get_future();
  FetchSlice(i, deadline_ms,
             [done](const util::Status& status) { done->set_value(status); });
  return fetched.get();
}

doc::NodeId ShardRouter::DocRootOf(doc::NodeId global) const {
  return view_->DocRootOf(global);
}

service::BackendPin ShardRouter::Pin() const {
  // An in-process sharded backend over the same layout shares the
  // layout fingerprint but not the tag: distributed answers can be
  // degraded, so they must never alias in the cache.
  static const uint32_t kTag = util::Crc32c("backend=dist");
  return {kTag ^ layout_fingerprint(), 0, nullptr};
}

service::QueryResponse ShardRouter::Execute(
    const service::BackendPin&, const query::Query&,
    const service::QueryRequest& request, const engine::ExecOptions& exec,
    std::optional<Clock::time_point> deadline) const {
  service::QueryResponse r;
  if (exec.cost_model != nullptr) {
    // Shipping an arbitrary per-request model is not supported, and
    // silently ignoring it would poison the cost-fingerprinted cache.
    r.status = util::Status::InvalidArgument(
        "per-request cost models are not supported by the distributed "
        "backend");
    return r;
  }
  int64_t remaining_ms = 0;  // no deadline
  if (deadline.has_value()) {
    remaining_ms = std::max<int64_t>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(
               *deadline - Clock::now())
               .count());
  }
  auto routed = Execute(request.query_text, exec.strategy, exec.n,
                        remaining_ms, request.min_epochs);
  if (!routed.ok()) {
    r.status = routed.status();
    return r;
  }
  r.answers = std::move(routed->answers);
  r.degraded = routed->degraded;
  r.missing_shards = std::move(routed->missing_shards);
  r.backend_epoch = routed->backend_epoch;
  return r;
}

util::Result<net::WireIngestAck> ShardRouter::CallIngestBlocking(
    size_t i, const net::WireIngest& ingest, int deadline_ms) {
  auto done =
      std::make_shared<std::promise<util::Result<net::WireIngestAck>>>();
  std::future<util::Result<net::WireIngestAck>> reply = done->get_future();
  backends_[i]->CallIngest(ingest, deadline_ms,
                           [done](util::Result<net::WireIngestAck> ack) {
                             done->set_value(std::move(ack));
                           });
  return reply.get();
}

util::Status ShardRouter::ResyncGlobals(int deadline_ms) {
  // Every slice, blocking: the next global id must clear EVERY shard's
  // occupied range, or a reassigned id would collide with a document
  // whose ack we never saw (an "in doubt" add that actually landed).
  for (size_t i = 0; i < backends_.size(); ++i) {
    util::Status fetched = FetchSliceBlocking(i, deadline_ms);
    if (!fetched.ok()) {
      return util::Status(fetched.code(),
                          "cannot resync global id space: shard " +
                              std::to_string(i) + ": " + fetched.message());
    }
  }
  next_global_ = view_->NextGlobal();
  return util::Status::OK();
}

util::Result<net::WireIngestAck> ShardRouter::Ingest(
    const net::WireIngest& ingest, int64_t deadline_ms) {
  if (backends_.empty()) {
    return util::Status::InvalidArgument("router has no shard endpoints");
  }
  ingest_calls_->Increment();
  // Ingest is synchronous end to end (the shard acks only after fsync),
  // so one blocking round trip per attempt is the honest shape — no
  // scatter, no retries (a resent add is a duplicate document).
  const int attempt_deadline = deadline_ms > 0
                                   ? static_cast<int>(deadline_ms)
                                   : options_.attempt_deadline_ms;

  if (ingest.op == net::WireIngest::Op::kAdd) {
    // The router owns the cluster-global id space: it assigns the add's
    // root id up front so every shard's corpus-global ids ARE cluster-
    // global ids and answers merge without remapping. assign_mu_ is held
    // across assign→ack so ids are handed out in ack order — exactly the
    // order BuildFromXml(acked docs) reproduces.
    util::MutexLock lock(&assign_mu_);
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (next_global_ == 0) {
        // Fresh router, or the last add left us in doubt. Rebase on the
        // cluster's actual occupancy before assigning anything.
        util::Status resynced = ResyncGlobals(attempt_deadline);
        if (!resynced.ok()) {
          ingest_failures_->Increment();
          return resynced;
        }
      }
      // Fewest documents in the view among shards not known-DOWN: a
      // dead server would otherwise stay the argmin forever (it never
      // gains documents) and every add during its outage would go
      // in-doubt against it. Without a health checker no ping could
      // revive a skipped shard, so then every shard stays eligible and
      // the add is the probe. Each ack's delta arrives ahead of the ack
      // on the same connection, so the view already counts every
      // earlier add and remove.
      size_t target = SIZE_MAX;
      size_t fewest = SIZE_MAX;
      for (size_t s = 0; s < backends_.size(); ++s) {
        if (options_.health_period_ms > 0 &&
            backends_[s]->health() == ShardHealth::kDown) {
          continue;
        }
        const size_t docs =
            view_->CurrentSlice(static_cast<uint32_t>(s)).spans.size();
        if (docs < fewest) {
          fewest = docs;
          target = s;
        }
      }
      if (target == SIZE_MAX) {
        ingest_failures_->Increment();
        return util::Status::Unavailable("every shard server is DOWN");
      }
      net::WireIngest assigned = ingest;
      assigned.assigned_global = next_global_;
      util::Result<net::WireIngestAck> ack =
          CallIngestBlocking(target, assigned, attempt_deadline);
      if (!ack.ok()) {
        // In doubt: the add may have landed without us seeing the ack.
        // Never reuse the id — force a resync before the next assign.
        next_global_ = 0;
        ingest_failures_->Increment();
        return ack;
      }
      if (ack->status_code ==
          static_cast<uint32_t>(util::StatusCode::kInvalidArgument)) {
        // The shard rejected the assigned id (our floor is stale — e.g.
        // another router is also assigning). Resync and retry once.
        next_global_ = 0;
        continue;
      }
      if (ack->status_code != static_cast<uint32_t>(util::StatusCode::kOk)) {
        ingest_failures_->Increment();
        return net::StatusFromWire(ack->status_code, ack->status_message);
      }
      next_global_ = ack->doc_root + ack->length;
      return ack;
    }
    ingest_failures_->Increment();
    return util::Status::Unavailable(
        "cluster rejected the assigned global id twice after resync — "
        "another writer owns this id space?");
  }

  // Remove: the view usually knows which shard holds the document, so
  // try that shard directly.
  uint32_t holder = 0;
  shard::DocSpan span;
  if (view_->FindDocument(ingest.doc_root, &holder, &span)) {
    util::Result<net::WireIngestAck> ack =
        CallIngestBlocking(holder, ingest, attempt_deadline);
    if (ack.ok() &&
        ack->status_code == static_cast<uint32_t>(util::StatusCode::kOk)) {
      return ack;
    }
    if (ack.ok() &&
        ack->status_code !=
            static_cast<uint32_t>(util::StatusCode::kNotFound)) {
      ingest_failures_->Increment();
      return net::StatusFromWire(ack->status_code, ack->status_message);
    }
    // NOT_FOUND (stale view) or transport error: probe everything.
  }

  // The view could not place the document, or its holder did not
  // confirm the remove: probe shards in index order until one answers
  // anything but NOT_FOUND.
  util::Status failure = util::Status::OK();
  for (size_t i = 0; i < backends_.size(); ++i) {
    util::Result<net::WireIngestAck> ack =
        CallIngestBlocking(i, ingest, attempt_deadline);
    if (!ack.ok()) {
      // In doubt on this shard (the remove may have landed); keep
      // probing the rest but surface the error instead of NOT_FOUND.
      if (failure.ok()) failure = ack.status();
      continue;
    }
    if (ack->status_code ==
        static_cast<uint32_t>(util::StatusCode::kNotFound)) {
      continue;
    }
    if (ack->status_code != static_cast<uint32_t>(util::StatusCode::kOk)) {
      ingest_failures_->Increment();
      return net::StatusFromWire(ack->status_code, ack->status_message);
    }
    return ack;
  }
  ingest_failures_->Increment();
  if (!failure.ok()) return failure;
  return util::Status::NotFound("document not found on any shard");
}

std::string ShardRouter::DumpMetrics() const {
  std::string out = metrics_.DumpText();
  for (size_t i = 0; i < backends_.size(); ++i) {
    const std::string prefix = "dist_shard_" + std::to_string(i);
    const net::AsyncClient::Stats stats = backends_[i]->transport_stats();
    out += prefix + "_health " + ToString(backends_[i]->health()) + "\n";
    out += prefix + "_sent " + std::to_string(stats.sent) + "\n";
    out += prefix + "_completed " + std::to_string(stats.completed) + "\n";
    out += prefix + "_failed " + std::to_string(stats.failed) + "\n";
    out += prefix + "_timed_out " + std::to_string(stats.timed_out) + "\n";
    out += prefix + "_reconnects " + std::to_string(stats.reconnects) + "\n";
    out += prefix + "_documents " +
           std::to_string(
               view_->CurrentSlice(static_cast<uint32_t>(i)).spans.size()) +
           "\n";
  }
  return out;
}

}  // namespace approxql::dist
