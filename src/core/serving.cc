#include "core/serving.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/threads.hh"
#include "runtime/engine.hh"

namespace hermes::serving {

namespace {

/** Round up to the next power of two (>= 1). */
std::uint32_t
powerOfTwoAtLeast(std::uint32_t value)
{
    std::uint32_t bucket = 1;
    while (bucket < value)
        bucket <<= 1;
    return bucket;
}

/**
 * Cost-surface row of `batch`: log2 of its power-of-two batch
 * bucket, capped at the bucket holding `max_batch`.  Row r is batch
 * bucket 2^r whatever the cap.
 */
std::size_t
batchRow(std::uint32_t batch, std::uint32_t max_batch)
{
    return static_cast<std::size_t>(std::countr_zero(std::min(
        powerOfTwoAtLeast(std::max<std::uint32_t>(batch, 1)),
        powerOfTwoAtLeast(max_batch))));
}

} // namespace

std::string
requestStateName(RequestState state)
{
    switch (state) {
    case RequestState::Unknown:
        return "unknown";
    case RequestState::Queued:
        return "queued";
    case RequestState::Prefilling:
        return "prefilling";
    case RequestState::Running:
        return "running";
    case RequestState::Preempted:
        return "preempted";
    case RequestState::Done:
        return "done";
    case RequestState::Shed:
        return "shed";
    }
    return "?";
}

void
sortByArrival(std::vector<ServedRequest> &workload)
{
    std::stable_sort(workload.begin(), workload.end(),
                     [](const ServedRequest &a,
                        const ServedRequest &b) {
                         return a.arrival < b.arrival;
                     });
}

void
checkArrivals(const std::vector<ServedRequest> &workload)
{
    for (const ServedRequest &request : workload) {
        if (!std::isfinite(request.arrival) || request.arrival < 0.0)
            throw std::invalid_argument(
                "request " + std::to_string(request.id) +
                ": arrival " + std::to_string(request.arrival) +
                " is not a finite, nonnegative time");
    }
}

ServingSimulator::ServingSimulator(runtime::SystemConfig system,
                                   model::LlmConfig llm,
                                   ServingConfig config)
    : system_(std::move(system)), llm_(std::move(llm)),
      config_(config), cache_(std::make_shared<CostCache>())
{
    // Explicit guards: degenerate policy values would otherwise
    // divide by zero or stall the admission loop.
    config_.maxBatch = std::max<std::uint32_t>(config_.maxBatch, 1);
    config_.calibrationTokens =
        std::max<std::uint32_t>(config_.calibrationTokens, 1);
    config_.seqBucket =
        std::max<std::uint32_t>(config_.seqBucket, 1);
}

ServingSimulator::StepCosts
ServingSimulator::costs(std::uint32_t batch, std::uint64_t seq)
{
    // Column by context bucket index, with the sorted per-row tail
    // catching contexts past the dense cap.
    const std::size_t row = batchRow(batch, config_.maxBatch);
    const std::uint64_t column = seq / config_.seqBucket;

    if (const StepCosts *hit = findCosts(row, column)) {
        saturated_ |= hit->saturatedFallback;
        return *hit;
    }
    const StepCosts step = exactCosts(row, column);
    saturated_ |= step.saturatedFallback;
    return step;
}

const ServingSimulator::StepCosts *
ServingSimulator::findCosts(std::size_t row, std::uint64_t column)
{
    CostCache &cache = *cache_;
    if (cache.dense.size() <= row) {
        cache.dense.resize(row + 1);
        cache.overflow.resize(row + 1);
    }
    if (column < CostCache::kMaxDenseColumns) {
        auto &cells = cache.dense[row];
        if (cells.size() <= column)
            cells.resize(column + 1);
        return cells[column].present ? &cells[column].costs
                                     : nullptr;
    }
    const auto &tail = cache.overflow[row];
    const auto it = std::lower_bound(
        tail.begin(), tail.end(), column,
        [](const std::pair<std::uint64_t, StepCosts> &entry,
           std::uint64_t key) { return entry.first < key; });
    if (it != tail.end() && it->first == column)
        return &it->second;
    return nullptr;
}

void
ServingSimulator::storeCosts(std::size_t row, std::uint64_t column,
                             const StepCosts &step)
{
    CostCache &cache = *cache_;
    if (column < CostCache::kMaxDenseColumns) {
        cache.dense[row][column] = CostCache::Entry{step, true};
        return;
    }
    auto &tail = cache.overflow[row];
    const auto it = std::lower_bound(
        tail.begin(), tail.end(), column,
        [](const std::pair<std::uint64_t, StepCosts> &entry,
           std::uint64_t key) { return entry.first < key; });
    if (it != tail.end() && it->first == column)
        it->second = step;
    else
        tail.insert(it, {column, step});
}

std::optional<ServingSimulator::StepCosts>
ServingSimulator::simulateCosts(runtime::InferenceEngine &engine,
                                const model::LlmConfig &llm,
                                const ServingConfig &config,
                                std::uint32_t batch_bucket,
                                std::uint64_t seq_bucket)
{
    // One engine simulation per bucket: the engine itself runs on the
    // shared decode pipeline, so serving latencies inherit the full
    // overlap model.
    runtime::InferenceRequest request;
    request.llm = llm;
    request.batch = batch_bucket;
    request.promptTokens = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(seq_bucket, UINT32_MAX));
    request.generateTokens = config.calibrationTokens;
    request.profileTokens = 24;
    request.seed = config.seed;

    const runtime::InferenceResult result = engine.run(request);
    StepCosts step;
    if (result.supported) {
        step.prefill = result.prefillTime;
        step.token = result.generateTime / config.calibrationTokens;
    } else if (request.batch > 1) {
        return std::nullopt; // Capacity fallback: see exactCosts().
    } else {
        step.prefill = -1.0; // Sentinel: engine cannot serve this.
        step.token = -1.0;
    }
    return step;
}

runtime::InferenceEngine &
ServingSimulator::rowEngine(std::size_t row)
{
    auto &engines = cache_->engines;
    if (engines.size() <= row)
        engines.resize(row + 1);
    if (!engines[row]) {
        if (!cache_->probe)
            cache_->probe = std::make_shared<dram::BandwidthProbe>(
                system_.dimm.dimm);
        engines[row] =
            runtime::makeEngine(config_.engine, system_, cache_->probe);
        // Cost-cell records decode few tokens, and run either on the
        // event thread or on a calibration worker that already owns
        // a core: they record inline.
        engines[row]->setRecordThreads(1);
    }
    return *engines[row];
}

ServingSimulator::StepCosts
ServingSimulator::exactCosts(std::size_t row, std::uint64_t column)
{
    if (const StepCosts *hit = findCosts(row, column))
        return *hit;
    CostCache &cache = *cache_;
    runtime::InferenceEngine &engine = rowEngine(row);
    const auto start = std::chrono::steady_clock::now();
    const std::optional<StepCosts> simulated = simulateCosts(
        engine, llm_, config_, std::uint32_t{1} << row,
        (column + 1) * config_.seqBucket);
    cache.engineSeconds +=
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    ++cache.engineRuns;
    StepCosts step;
    if (simulated) {
        step = *simulated;
    } else {
        // A bucket can be unservable even when smaller ones are not
        // (KV cache grows with batch and context).  Serve it at the
        // largest supported batch bucket and flag it saturated
        // rather than at a corrupt zero cost.  The half-batch bucket
        // is the row below's own cell, so its engine (and tape)
        // computes it, once.
        step = exactCosts(row - 1, column);
        step.saturatedFallback = true;
    }
    storeCosts(row, column, step);
    return step;
}

bool
ServingSimulator::shareCostsWith(ServingSimulator &other)
{
    if (!(system_ == other.system_) || !(llm_ == other.llm_) ||
        config_.engine != other.config_.engine ||
        config_.calibrationTokens !=
            other.config_.calibrationTokens ||
        config_.seed != other.config_.seed ||
        config_.seqBucket != other.config_.seqBucket)
        return false;
    cache_ = other.cache_;
    return true;
}

double
ServingSimulator::calibrationSeconds() const
{
    return cache_->engineSeconds;
}

std::uint64_t
ServingSimulator::calibrationRuns() const
{
    return cache_->engineRuns;
}

std::uint64_t
ServingSimulator::calibrationTapes() const
{
    std::uint64_t tapes = 0;
    for (const auto &engine : cache_->engines) {
        if (engine)
            tapes += engine->tapesBuilt();
    }
    return tapes;
}

std::uint64_t
ServingSimulator::calibrationRankSimulations() const
{
    return cache_->probe ? cache_->probe->simulations() : 0;
}

void
ServingSimulator::warmCosts(const std::vector<CostProbe> &probes,
                            std::uint32_t threads)
{
    // Reduce the probes to the distinct cost-surface cells they
    // touch, (row, column), sorted by row, minus the cells already
    // computed.
    std::vector<std::pair<std::size_t, std::uint64_t>> cells;
    cells.reserve(probes.size());
    for (const CostProbe &probe : probes)
        cells.emplace_back(batchRow(probe.batch, config_.maxBatch),
                           probe.seq / config_.seqBucket);
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    std::erase_if(cells, [&](const auto &cell) {
        return findCosts(cell.first, cell.second) != nullptr;
    });

    // Whole rows go to workers: a row's cells differ only in
    // context, so the row's engine records its tape once and replays
    // it for every column.  rows[k] is the start of the k-th row's
    // run of cells.
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i == 0 || cells[i].first != cells[i - 1].first)
            rows.push_back(i);
    }
    // Each job owns one row: its engine is built here, so jobs
    // never touch the engine table, and its timing and results land
    // in its own slots.  The results are inserted sequentially
    // afterwards, so the surface's contents are independent of
    // thread interleaving.  `threads` arrives pre-resolved from the
    // fleet layer, but a direct warmCosts(probes, 0) call must
    // still get one worker, not a zero-thread pool.
    for (const std::size_t first : rows)
        rowEngine(cells[first].first);
    const std::size_t jobs = rows.size();
    rows.push_back(cells.size());
    std::vector<std::optional<StepCosts>> computed(cells.size());
    std::vector<double> seconds(jobs, 0.0);
    const auto fill_row = [&](std::size_t k) {
        const std::size_t row = cells[rows[k]].first;
        runtime::InferenceEngine &engine = *cache_->engines[row];
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = rows[k]; i < rows[k + 1]; ++i)
            computed[i] = simulateCosts(
                engine, llm_, config_, std::uint32_t{1} << row,
                (cells[i].second + 1) * config_.seqBucket);
        seconds[k] = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    };
    parallelFor(resolveWorkerCount(threads, 1, jobs), jobs, fill_row);
    for (const double spent : seconds)
        cache_->engineSeconds += spent;
    cache_->engineRuns += cells.size();
    // Insert in row order, so a saturated cell finds the row
    // below's cell already stored (or computes it), exactly as the
    // sequential fill resolves it.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto [row, column] = cells[i];
        StepCosts step;
        if (computed[i]) {
            step = *computed[i];
        } else {
            step = exactCosts(row - 1, column);
            step.saturatedFallback = true;
        }
        storeCosts(row, column, step);
    }
}

Seconds
ServingSimulator::prefillSeconds(std::uint32_t batch,
                                 std::uint64_t prompt_tokens)
{
    return std::max(costs(batch, prompt_tokens).prefill, 0.0);
}

Seconds
ServingSimulator::tokenSeconds(std::uint32_t batch,
                               std::uint64_t seq)
{
    return std::max(costs(batch, seq).token, 0.0);
}

bool
ServingSimulator::servable(std::uint32_t batch, std::uint64_t seq)
{
    return costs(batch, seq).token >= 0.0;
}

void
ServingSimulator::beginSession()
{
    entries_.clear();
    pending_.clear();
    waiting_.clear();
    active_.clear();
    backlogOwed_ = 0;
    sessionKv_.clear();
    kvResidentTokens_ = 0;
    retired_.clear();
    prioritized_ = false;
    clock_ = 0.0;
    inflight_ = StepKind::Idle;
    inflightEnd_ = 0.0;
    inflightDt_ = 0.0;
    inflightGroup_.clear();
    deadChecked_ = false;
    dead_ = false;
    sessionCompleted_ = 0;
    sessionRejected_ = 0;
    generated_ = 0;
    decodeTime_ = 0.0;
    occupancyWeighted_ = 0.0;
    peakBatch_ = 0;
    tokenLatencies_.clear();
    ttftSamples_.clear();
    // saturated_ is deliberately sticky: it describes the cost
    // cache, which outlives sessions.
}

void
ServingSimulator::reserveSession(std::size_t expected_requests)
{
    entries_.reserve(expected_requests);
    active_.reserve(config_.maxBatch);
    inflightGroup_.reserve(config_.maxBatch);
    retired_.reserve(config_.maxBatch);
}

void
ServingSimulator::deliver(const ServedRequest &request)
{
    const std::size_t index = entries_.size();
    Entry &entry = entries_.emplace_back();
    entry.request = request;
    entry.metrics.id = request.id;
    entry.metrics.arrival = request.arrival;
    entry.metrics.priority = request.priority;
    prioritized_ |= request.priority != 0;
    backlogOwed_ += request.generateTokens;
    pending_.push_back(index);
}

void
ServingSimulator::deliverResumed(const ResumableRequest &resumed,
                                 Seconds now,
                                 std::uint64_t cached_tokens)
{
    hermes_assert(resumed.tokensGenerated == 0 ||
                      resumed.tokensGenerated <
                          resumed.request.generateTokens,
                  "deliverResumed: request ", resumed.request.id,
                  " has no tokens left to generate");
    const std::size_t index = entries_.size();
    Entry &entry = entries_.emplace_back();
    // The stored copy carries the re-arrival instant for queue
    // ordering; the original arrival lives on in the metrics row.
    entry.request = resumed.request;
    entry.request.arrival = now;
    RequestMetrics &metrics = entry.metrics;
    metrics.id = resumed.request.id;
    metrics.arrival = resumed.request.arrival;
    metrics.priority = resumed.request.priority;
    metrics.admitted = resumed.admitted;
    metrics.firstToken = resumed.firstToken;
    metrics.tokens = resumed.tokensGenerated;
    metrics.preemptions = resumed.preemptions;
    metrics.migrations = resumed.migrations;
    entry.resumed = true;
    entry.resumedTokens = resumed.tokensGenerated;
    entry.cachedTokens =
        std::min(cached_tokens, resumed.contextLength());
    prioritized_ |= resumed.request.priority != 0;
    backlogOwed_ += resumed.request.generateTokens -
                    resumed.tokensGenerated;
    pending_.push_back(index);
}

std::uint64_t
ServingSimulator::consumeSessionKv(std::uint64_t session,
                                   std::uint64_t prompt_tokens)
{
    for (std::size_t k = 0; k < sessionKv_.size(); ++k) {
        if (sessionKv_[k].session != session)
            continue;
        const std::uint64_t cached =
            std::min(sessionKv_[k].tokens, prompt_tokens);
        hermes_assert(kvResidentTokens_ >= sessionKv_[k].tokens,
                      "session KV accounting underflow");
        kvResidentTokens_ -= sessionKv_[k].tokens;
        sessionKv_.erase(sessionKv_.begin() +
                         static_cast<std::ptrdiff_t>(k));
        return cached;
    }
    return 0;
}

void
ServingSimulator::retireSessionKv(std::uint64_t session,
                                  std::uint64_t context_tokens)
{
    // The session's turns run one at a time, so its entry was
    // consumed at admission and is normally absent; fold in any
    // leftover defensively (concurrent same-session turns).
    const std::uint64_t stale = consumeSessionKv(session, 0);
    (void)stale;
    sessionKv_.push_back(SessionKv{session, context_tokens});
    kvResidentTokens_ += context_tokens;
    if (config_.kvCapacityTokens == 0)
        return;
    while (kvResidentTokens_ > config_.kvCapacityTokens &&
           sessionKv_.size() > 1) {
        kvResidentTokens_ -= sessionKv_.front().tokens;
        sessionKv_.erase(sessionKv_.begin());
    }
    // A single conversation larger than the whole budget keeps its
    // KV (evicting the only resident session would thrash every
    // turn); anything beyond that is over-budget by construction.
}

std::uint64_t
ServingSimulator::cachedSessionTokens(std::uint64_t session) const
{
    for (const SessionKv &entry : sessionKv_) {
        if (entry.session == session)
            return entry.tokens;
    }
    return 0;
}

ResumableRequest
ServingSimulator::resumableAt(std::size_t index) const
{
    const RequestMetrics &metrics = entries_[index].metrics;
    ResumableRequest out;
    out.request = entries_[index].request;
    out.request.arrival = metrics.arrival;
    out.tokensGenerated = metrics.tokens;
    out.admitted = metrics.admitted;
    out.firstToken = metrics.firstToken;
    out.preemptions = metrics.preemptions;
    out.migrations = metrics.migrations;
    return out;
}

ResumableRequest
ServingSimulator::preempt(std::uint64_t id)
{
    hermes_assert(!busy(), "preempt mid-step: preemption happens "
                           "at decode boundaries");
    for (auto it = active_.begin(); it != active_.end(); ++it) {
        const std::size_t index = it->index;
        if (entries_[index].metrics.id != id)
            continue;
        ResumableRequest out = resumableAt(index);
        ++out.preemptions;
        entries_[index].moved = Moved::Preempted;
        hermes_assert(backlogOwed_ >= it->remaining,
                      "backlog underflow preempting request ",
                      entries_[index].metrics.id);
        backlogOwed_ -= it->remaining;
        active_.erase(it);
        return out;
    }
    throw std::logic_error(
        "ServingSimulator::preempt: request " + std::to_string(id) +
        " is not running here (queued/unknown ids cannot be "
        "preempted)");
}

ResumableRequest
ServingSimulator::takeQueued(std::uint64_t id)
{
    const auto extract =
        [&](std::deque<std::size_t> &queue) -> std::ptrdiff_t {
        for (std::size_t k = 0; k < queue.size(); ++k) {
            const std::size_t index = queue[k];
            if (entries_[index].metrics.id != id)
                continue;
            queue.erase(queue.begin() +
                        static_cast<std::ptrdiff_t>(k));
            return static_cast<std::ptrdiff_t>(index);
        }
        return -1;
    };
    std::ptrdiff_t found = extract(waiting_);
    if (found < 0)
        found = extract(pending_);
    if (found < 0)
        throw std::logic_error(
            "ServingSimulator::takeQueued: request " +
            std::to_string(id) + " is not queued here");
    const auto index = static_cast<std::size_t>(found);
    ResumableRequest out = resumableAt(index);
    Entry &entry = entries_[index];
    entry.moved = Moved::Stolen;
    // A resumed entry contributed only its un-generated remainder
    // at delivery; subtract exactly that so the counter returns to
    // its pre-delivery value.
    const std::uint64_t owed =
        entry.request.generateTokens - entry.resumedTokens;
    hermes_assert(backlogOwed_ >= owed,
                  "backlog underflow taking queued request ",
                  entry.metrics.id);
    backlogOwed_ -= owed;
    return out;
}

RequestState
ServingSimulator::stateOf(std::uint64_t id) const
{
    // Newest entry wins: a locally resumed request shadows the
    // Preempted entry it left behind.
    for (std::size_t i = entries_.size(); i-- > 0;) {
        const Entry &entry = entries_[i];
        if (entry.metrics.id != id)
            continue;
        if (entry.moved == Moved::Preempted)
            return RequestState::Preempted;
        if (entry.moved == Moved::Stolen)
            return RequestState::Unknown;
        for (const std::size_t index : inflightGroup_) {
            if (index == i)
                return RequestState::Prefilling;
        }
        for (const Running &running : active_) {
            if (running.index == i)
                return RequestState::Running;
        }
        for (const std::size_t index : waiting_) {
            if (index == i)
                return RequestState::Queued;
        }
        for (const std::size_t index : pending_) {
            if (index == i)
                return RequestState::Queued;
        }
        return entry.metrics.rejected ? RequestState::Shed
                                      : RequestState::Done;
    }
    return RequestState::Unknown;
}

StepAction
ServingSimulator::startNextWork(Seconds now)
{
    hermes_assert(!busy(), "startNextWork with work in flight");

    // Capability probe at the first observed request — the same
    // batch-1 probe the closed loop ran up front.  A dead replica
    // (platform cannot run the model) holds every delivery without
    // advancing its clock; finishSession rejects the holdovers,
    // reproducing the whole-trace rejection of the old path.  Held
    // requests stay visible to observed-state routing and remain
    // stealable, so feedback policies and work stealing can route
    // around the failure.
    if (!deadChecked_ && !pending_.empty()) {
        deadChecked_ = true;
        dead_ =
            costs(1, entries_[pending_.front()].request.promptTokens)
                .token < 0.0;
    }
    if (dead_)
        return StepAction{StepKind::Idle, clock_};

    hermes_assert(now >= clock_,
                  "startNextWork walks the clock backwards");
    clock_ = now;

    // Observe due arrivals, rejecting past the queue limit.  Free
    // batch slots count as queue capacity: an arrival that will be
    // admitted this very boundary is not "queued".
    const std::size_t free_slots =
        config_.maxBatch > active_.size()
            ? config_.maxBatch - active_.size()
            : 0;
    while (!pending_.empty() &&
           entries_[pending_.front()].request.arrival <= clock_) {
        const std::size_t index = pending_.front();
        pending_.pop_front();
        Entry &entry = entries_[index];
        // Resumed entries held queue capacity once already — a
        // preempted request is never dropped at its own requeue.
        // Discriminated by the explicit flag: a zero-token resumed
        // entry (taken from a queue before its first prefill) is
        // just as exempt as one with progress.
        if (!entry.resumed &&
            waiting_.size() >= config_.maxQueue + free_slots) {
            entry.metrics.rejected = true;
            ++sessionRejected_;
            hermes_assert(backlogOwed_ >= entry.request.generateTokens,
                          "backlog underflow shedding request ",
                          entry.metrics.id);
            backlogOwed_ -= entry.request.generateTokens;
        } else {
            waiting_.push_back(index);
        }
    }

    if (active_.empty() && waiting_.empty()) {
        if (pending_.empty())
            return StepAction{StepKind::Idle, clock_};
        return StepAction{
            StepKind::WaitArrival,
            entries_[pending_.front()].request.arrival};
    }

    // Continuous batching: fill free slots from the queue — highest
    // priority first, FIFO among equals, so all-default-priority
    // traffic admits in the historical order — then run the joint
    // prefill of the admitted group, or, with nobody newly
    // admitted, one decode step for the whole running batch.
    inflightGroup_.clear();
    while (!waiting_.empty() &&
           active_.size() < config_.maxBatch) {
        // Fast path: a session that never saw a non-default
        // priority admits pure FIFO without scanning the queue —
        // this is the kernel hot path the events/sec bench tracks.
        std::size_t pick = 0;
        if (prioritized_) {
            for (std::size_t k = 1; k < waiting_.size(); ++k) {
                if (entries_[waiting_[k]].request.priority >
                    entries_[waiting_[pick]].request.priority)
                    pick = k;
            }
        }
        const std::size_t index = waiting_[pick];
        waiting_.erase(waiting_.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        Entry &entry = entries_[index];
        if (entry.resumedTokens == 0)
            entry.metrics.admitted = clock_;
        inflightGroup_.push_back(index);
        active_.push_back(Running{
            index, entry.request.generateTokens - entry.resumedTokens,
            entry.request.promptTokens + entry.resumedTokens});
    }
    if (!inflightGroup_.empty()) {
        // A fresh request prefills its whole prompt; a resumed one
        // only the context suffix its host has no KV for — zero
        // when the KV was retained locally or transferred ahead of
        // the delivery, in which case rejoining is free.  A fresh
        // *session turn* consumes its conversation's resident KV:
        // the cached history prefix is free, only the new suffix is
        // charged.  (The entry leaves the LRU table while in use —
        // pinned by the running request — and returns, grown, when
        // the turn retires.)
        std::uint64_t max_prompt = 0;
        for (const std::size_t index : inflightGroup_) {
            const Entry &entry = entries_[index];
            const std::uint64_t prompt = entry.request.promptTokens;
            std::uint64_t charged;
            if (entry.resumedTokens == 0) {
                charged = std::max<std::uint64_t>(prompt, 1);
                if (!entry.resumed && entry.request.sessionId != 0) {
                    const std::uint64_t cached = consumeSessionKv(
                        entry.request.sessionId, prompt);
                    charged = prompt > cached ? prompt - cached : 0;
                }
            } else {
                charged = prompt + entry.resumedTokens -
                          entry.cachedTokens;
            }
            max_prompt = std::max(max_prompt, charged);
        }
        // max(0): a bucket probe can come back unsupported (KV
        // growth at large batch); serve it at zero extra cost
        // rather than walking the clock backwards.
        const Seconds prefill =
            max_prompt == 0
                ? 0.0
                : std::max(
                      costs(static_cast<std::uint32_t>(
                                inflightGroup_.size()),
                            max_prompt)
                          .prefill,
                      0.0);
        inflight_ = StepKind::Prefill;
        inflightEnd_ = clock_ + prefill;
    } else {
        const auto batch =
            static_cast<std::uint32_t>(active_.size());
        std::uint64_t max_seq = 1;
        for (const Running &running : active_)
            max_seq = std::max(max_seq, running.seq);
        inflightDt_ = std::max(costs(batch, max_seq).token, 0.0);
        inflight_ = StepKind::Decode;
        inflightEnd_ = clock_ + inflightDt_;
    }
    peakBatch_ = std::max(
        peakBatch_, static_cast<std::uint32_t>(active_.size()));
    return StepAction{inflight_, inflightEnd_};
}

const std::vector<std::uint64_t> &
ServingSimulator::completeWork()
{
    hermes_assert(busy(), "completeWork with nothing in flight");
    clock_ = inflightEnd_;
    if (inflight_ == StepKind::Prefill) {
        for (const std::size_t index : inflightGroup_) {
            // A resumed request already emitted its first token on
            // some earlier admission; its TTFT is sampled once.
            Entry &entry = entries_[index];
            if (entry.resumedTokens == 0) {
                entry.metrics.firstToken = clock_;
                ttftSamples_.push_back(entry.metrics.ttft());
            }
        }
        // Prefill produces the (next) token.  The admitted group
        // occupies the tail of `active_` (just pushed).
        for (std::size_t k =
                 active_.size() - inflightGroup_.size();
             k < active_.size(); ++k) {
            Running &running = active_[k];
            if (running.remaining > 0) {
                ++entries_[running.index].metrics.tokens;
                --running.remaining;
                ++running.seq;
                ++generated_;
                --backlogOwed_;
            }
        }
    } else {
        const auto batch =
            static_cast<std::uint32_t>(active_.size());
        decodeTime_ += inflightDt_;
        occupancyWeighted_ +=
            static_cast<double>(batch) * inflightDt_;
        // Every running request owes at least the token this step
        // emits; once per step, not per token (hot path).
        hermes_assert(backlogOwed_ >= active_.size(),
                      "backlog underflow in decode step");
        for (Running &running : active_) {
            ++entries_[running.index].metrics.tokens;
            --running.remaining;
            ++running.seq;
            ++generated_;
            --backlogOwed_;
        }
        // All `batch` tokens of the step cost inflightDt_; equal
        // costs share one run, so the scan stays a few entries long.
        const auto run = std::find_if(
            tokenLatencies_.begin(), tokenLatencies_.end(),
            [&](const SampleRun &r) { return r.value == inflightDt_; });
        if (run != tokenLatencies_.end())
            run->count += batch;
        else
            tokenLatencies_.push_back({inflightDt_, batch});
    }
    inflight_ = StepKind::Idle;
    inflightGroup_.clear();

    // Retire finished requests: one order-preserving compaction
    // pass into the reused retired-ids buffer.
    retired_.clear();
    std::size_t write = 0;
    for (std::size_t read = 0; read < active_.size(); ++read) {
        const Running &running = active_[read];
        if (running.remaining == 0) {
            Entry &entry = entries_[running.index];
            entry.metrics.completed = clock_;
            ++sessionCompleted_;
            retired_.push_back(entry.metrics.id);
            // The turn's full context (running.seq = prompt +
            // generated) stays warm for the session's next turn,
            // subject to the KV budget.
            if (entry.request.sessionId != 0)
                retireSessionKv(entry.request.sessionId, running.seq);
        } else {
            active_[write++] = running;
        }
    }
    active_.resize(write);
    return retired_;
}

ServingReport
ServingSimulator::finishSession()
{
    hermes_assert(!busy() && active_.empty(),
                  "finishSession with work in flight");

    // Whatever is still queued was never served (only a dead
    // replica ends a drained session with holdovers).
    for (const std::size_t index : pending_) {
        entries_[index].metrics.rejected = true;
        ++sessionRejected_;
    }
    for (const std::size_t index : waiting_) {
        entries_[index].metrics.rejected = true;
        ++sessionRejected_;
    }
    pending_.clear();
    waiting_.clear();
    backlogOwed_ = 0;

    ServingReport report;
    report.engine = runtime::engineKindName(config_.engine);
    report.requests.reserve(entries_.size());
    for (const Entry &entry : entries_) {
        if (entry.moved == Moved::No)
            report.requests.push_back(entry.metrics);
    }
    report.completed = sessionCompleted_;
    report.rejected = sessionRejected_;
    report.makespan = clock_;
    report.peakBatch = peakBatch_;
    report.costModelSaturated = saturated_;
    report.throughputTps =
        clock_ > 0.0
            ? static_cast<double>(generated_) / clock_
            : 0.0;
    report.meanBatchOccupancy =
        decodeTime_ > 0.0 ? occupancyWeighted_ / decodeTime_ : 0.0;
    const SortedSamples tokens(tokenLatencies_);
    report.p50TokenLatency = tokens.percentile(50.0);
    report.p90TokenLatency = tokens.percentile(90.0);
    report.p99TokenLatency = tokens.percentile(99.0);
    const SortedSamples ttft(ttftSamples_);
    report.p50Ttft = ttft.percentile(50.0);
    report.p99Ttft = ttft.percentile(99.0);
    return report;
}

std::uint32_t
ServingSimulator::observedOutstanding() const
{
    return static_cast<std::uint32_t>(
        active_.size() + waiting_.size() + pending_.size());
}

double
ServingSimulator::observedBacklogTokens() const
{
    // Incrementally maintained (see backlogOwed_): token counts are
    // integral, so this equals the historical walk over active_ +
    // waiting_ + pending_ exactly.
    return static_cast<double>(backlogOwed_);
}

std::vector<RequestInfo>
ServingSimulator::runningInfos() const
{
    std::vector<RequestInfo> out;
    out.reserve(active_.size());
    for (const Running &running : active_) {
        const Entry &entry = entries_[running.index];
        RequestInfo info;
        info.id = entry.metrics.id;
        info.priority = entry.request.priority;
        info.arrival = entry.metrics.arrival;
        info.tokensGenerated = entry.metrics.tokens;
        info.remainingTokens = running.remaining;
        out.push_back(info);
    }
    return out;
}

std::vector<RequestInfo>
ServingSimulator::queuedInfos() const
{
    std::vector<RequestInfo> out;
    out.reserve(waiting_.size() + pending_.size());
    const auto append = [&](const std::deque<std::size_t> &queue) {
        for (const std::size_t index : queue) {
            const Entry &entry = entries_[index];
            RequestInfo info;
            info.id = entry.metrics.id;
            info.priority = entry.request.priority;
            info.arrival = entry.metrics.arrival;
            info.tokensGenerated = entry.metrics.tokens;
            info.remainingTokens =
                entry.request.generateTokens - entry.resumedTokens;
            out.push_back(info);
        }
    };
    append(waiting_);
    append(pending_);
    return out;
}

std::uint32_t
ServingSimulator::queuedCount() const
{
    return static_cast<std::uint32_t>(waiting_.size() +
                                      pending_.size());
}

std::vector<ServedRequest>
ServingSimulator::stealQueued(std::uint32_t count)
{
    // Newest arrivals first: under FIFO admission those would wait
    // the longest here, so they gain the most from moving.  Resumed
    // entries are skipped — even zero-token ones carry resume state
    // (lifecycle counters, original timestamps) a plain steal would
    // silently drop (see header).
    std::vector<ServedRequest> out;
    const auto take_from = [&](std::deque<std::size_t> &queue) {
        for (std::size_t k = queue.size();
             k-- > 0 && out.size() < count;) {
            Entry &entry = entries_[queue[k]];
            if (entry.resumed)
                continue;
            queue.erase(queue.begin() +
                        static_cast<std::ptrdiff_t>(k));
            entry.moved = Moved::Stolen;
            hermes_assert(backlogOwed_ >= entry.request.generateTokens,
                          "backlog underflow stealing request ",
                          entry.metrics.id);
            backlogOwed_ -= entry.request.generateTokens;
            out.push_back(entry.request);
        }
    };
    take_from(pending_);
    take_from(waiting_);
    std::sort(out.begin(), out.end(),
              [](const ServedRequest &a, const ServedRequest &b) {
                  return a.arrival != b.arrival
                             ? a.arrival < b.arrival
                             : a.id < b.id;
              });
    return out;
}

ServingReport
ServingSimulator::run(std::vector<ServedRequest> workload)
{
    checkArrivals(workload);
    sortByArrival(workload);
    beginSession();
    reserveSession(workload.size());
    for (const ServedRequest &request : workload)
        deliver(request);
    // The closed loop is the stepwise protocol driven locally: the
    // only difference from the fleet kernel is that idle gaps are
    // skipped by re-entering at the next arrival instant.
    for (;;) {
        if (busy())
            completeWork();
        StepAction action = startNextWork(clock_);
        if (action.kind == StepKind::WaitArrival)
            action = startNextWork(action.until);
        if (action.kind == StepKind::Idle)
            break;
    }
    return finishSession();
}

std::vector<ServedRequest>
syntheticWorkload(std::uint32_t count, double arrivals_per_second,
                  std::uint32_t prompt_tokens,
                  std::uint32_t generate_tokens, std::uint64_t seed)
{
    std::vector<ServedRequest> workload;
    workload.reserve(count);
    Rng rng(seed ^ 0x5e417a77ULL);
    Seconds clock = 0.0;
    for (std::uint32_t i = 0; i < count; ++i) {
        ServedRequest request;
        request.id = i;
        request.arrival = clock;
        request.promptTokens = prompt_tokens;
        request.generateTokens = generate_tokens;
        workload.push_back(request);
        if (arrivals_per_second > 0.0) {
            // Exponential inter-arrival; clamp the tail so one freak
            // gap cannot dominate a short trace.
            const double u =
                std::max(rng.uniform(), 1.0e-12);
            clock += std::min(-std::log(u) / arrivals_per_second,
                              100.0 / arrivals_per_second);
        }
    }
    return workload;
}

SortedSamples::SortedSamples(std::vector<Seconds> values)
{
    std::sort(values.begin(), values.end());
    for (const Seconds value : values)
        append(value, 1);
}

SortedSamples::SortedSamples(std::vector<SampleRun> runs)
{
    std::sort(runs.begin(), runs.end(),
              [](const SampleRun &a, const SampleRun &b) {
                  return a.value < b.value;
              });
    for (const SampleRun &run : runs) {
        if (run.count > 0)
            append(run.value, run.count);
    }
}

void
SortedSamples::append(Seconds value, std::uint64_t count)
{
    const std::uint64_t below = size() + count;
    if (!runs_.empty() && runs_.back().value == value)
        runs_.back().count = below;
    else
        runs_.push_back({value, below});
}

Seconds
SortedSamples::at(std::uint64_t rank) const
{
    return std::upper_bound(runs_.begin(), runs_.end(), rank,
                            [](std::uint64_t k, const SampleRun &run) {
                                return k < run.count;
                            })
        ->value;
}

Seconds
SortedSamples::percentile(double p) const
{
    if (std::isnan(p))
        throw std::invalid_argument(
            "percentile: p must be a number in [0, 100], got " +
            std::to_string(p));
    const std::uint64_t n = size();
    if (n == 0)
        return 0.0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank =
        clamped / 100.0 * static_cast<double>(n - 1);
    const auto low = static_cast<std::uint64_t>(rank);
    const std::uint64_t high = std::min(low + 1, n - 1);
    const double fraction = rank - static_cast<double>(low);
    const Seconds low_value = at(low);
    const Seconds high_value = at(high);
    return low_value + (high_value - low_value) * fraction;
}

} // namespace hermes::serving
