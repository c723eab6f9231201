#include "sched/router.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hermes::sched {

std::string
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
    case RouterPolicy::RoundRobin:
        return "round-robin";
    case RouterPolicy::JoinShortestQueue:
        return "jsq";
    case RouterPolicy::LeastOutstandingTokens:
        return "least-tokens";
    case RouterPolicy::SloAware:
        return "slo-aware";
    case RouterPolicy::TrueJsq:
        return "true-jsq";
    case RouterPolicy::LeastActualBacklog:
        return "least-backlog";
    }
    return "?";
}

std::vector<RouterPolicy>
allRouterPolicies()
{
    return {RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastOutstandingTokens,
            RouterPolicy::SloAware,
            RouterPolicy::TrueJsq,
            RouterPolicy::LeastActualBacklog};
}

bool
routerPolicyNeedsObservations(RouterPolicy policy)
{
    return policy == RouterPolicy::TrueJsq ||
           policy == RouterPolicy::LeastActualBacklog;
}

RouterPolicy
routerPolicyByName(const std::string &name)
{
    for (const RouterPolicy policy : allRouterPolicies()) {
        if (routerPolicyName(policy) == name)
            return policy;
    }
    throw std::invalid_argument(
        "routerPolicyByName: unknown policy '" + name + "'");
}

Router::Router(RouterPolicy policy,
               std::vector<ReplicaModel> replicas,
               Seconds ttft_deadline)
    : policy_(policy), replicas_(std::move(replicas)),
      deadline_(ttft_deadline)
{
    if (replicas_.empty())
        throw std::invalid_argument("Router: no replicas");
    state_.resize(replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        auto &model = replicas_[i];
        model.maxBatch = std::max<std::uint32_t>(model.maxBatch, 1);
        model.slotTokensPerSecond =
            std::max(model.slotTokensPerSecond, 1.0e-9);
        model.prefillSeconds = std::max(model.prefillSeconds, 0.0);
        state_[i].freeAt.assign(model.maxBatch, 0.0);
    }
    routable_.assign(replicas_.size(), 1);
    routableCount_ = replicaCount();
    if (indexed()) {
        live_.assign(replicas_.size(), 0);
        for (std::uint32_t i = 0; i < replicas_.size(); ++i)
            rekey(i);
    }
}

void
Router::addReplica(const ReplicaModel &model)
{
    replicas_.push_back(model);
    ReplicaModel &added = replicas_.back();
    added.maxBatch = std::max<std::uint32_t>(added.maxBatch, 1);
    added.slotTokensPerSecond =
        std::max(added.slotTokensPerSecond, 1.0e-9);
    added.prefillSeconds = std::max(added.prefillSeconds, 0.0);
    state_.emplace_back();
    state_.back().freeAt.assign(added.maxBatch, 0.0);
    routable_.push_back(1);
    ++routableCount_;
    if (indexed()) {
        live_.push_back(0);
        rekey(replicaCount() - 1);
    }
}

void
Router::setRoutable(std::uint32_t replica, bool routable)
{
    if (routable_.at(replica) == (routable ? 1 : 0))
        return;
    routable_[replica] = routable ? 1 : 0;
    if (routable)
        ++routableCount_;
    else
        --routableCount_;
    if (indexed())
        rekey(replica);
}

void
Router::rekey(std::uint32_t replica)
{
    shortest_.set(replica, routable_[replica]
                               ? static_cast<double>(live_[replica])
                               : ReplicaIndex::kAbsent);
}

void
Router::expireThrough(Seconds now)
{
    while (!expiry_.empty() && expiry_.front().first <= now) {
        const std::uint32_t replica = expiry_.front().second;
        std::pop_heap(expiry_.begin(), expiry_.end(),
                      std::greater<>{});
        expiry_.pop_back();
        --live_[replica];
        rekey(replica);
    }
}

std::uint32_t
Router::outstandingRequests(std::uint32_t replica, Seconds now) const
{
    // Queue depth = routed requests not yet estimated-finished (NOT
    // busy batch slots: prefill stalls saturate every slot at once,
    // which would collapse all queue depths to maxBatch and reduce
    // JSQ to always-pick-the-first-tie).
    std::uint32_t outstanding = 0;
    for (const Commitment &c : state_[replica].commitments)
        outstanding += c.finish > now ? 1 : 0;
    return outstanding;
}

double
Router::outstandingTokens(std::uint32_t replica, Seconds now) const
{
    double tokens = 0.0;
    for (const Commitment &c : state_[replica].commitments) {
        if (c.finish <= now)
            continue;
        if (now <= c.decodeStart || c.finish <= c.decodeStart) {
            tokens += c.tokens;
        } else {
            tokens += c.tokens * (c.finish - now) /
                      (c.finish - c.decodeStart);
        }
    }
    return tokens;
}

Seconds
Router::estimateTtft(std::uint32_t replica, Seconds arrival) const
{
    const SlotState &state = state_[replica];
    const Seconds earliest = *std::min_element(
        state.freeAt.begin(), state.freeAt.end());
    const Seconds prefill = replicas_[replica].prefillSeconds;
    if (joinsGroup(state, arrival)) {
        // Joins the admission group whose joint prefill starts at
        // lastPrefillStart: slots stalled by that broadcast already
        // free no earlier than its end, so the wait IS the TTFT.
        return std::max(earliest,
                        state.lastPrefillStart + prefill) -
               arrival;
    }
    const Seconds start = std::max(arrival, earliest);
    return start - arrival + prefill;
}

void
Router::commit(std::uint32_t replica, Seconds arrival,
               std::uint32_t generate_tokens)
{
    SlotState &state = state_[replica];
    auto slot = std::min_element(state.freeAt.begin(),
                                 state.freeAt.end());
    const ReplicaModel &model = replicas_[replica];
    const double decode_seconds =
        static_cast<double>(generate_tokens) /
        model.slotTokensPerSecond;

    // The serving simulator serializes an admitted group's prefill
    // with the whole batch: while a group prefills, every slot of
    // the replica stalls.  Model that, or estimates stay wildly
    // optimistic under churn and SLO-aware shedding never triggers.
    // Requests routed at the same admission instant share ONE joint
    // prefill (the simulator prefills the group together), so only
    // the group's first commit broadcasts the stall.
    Seconds decode_start;
    if (joinsGroup(state, arrival)) {
        decode_start = std::max(
            *slot,
            state.lastPrefillStart + model.prefillSeconds);
        ++state.groupSize;
    } else {
        const Seconds start = std::max(arrival, *slot);
        std::uint32_t capacity = 0;
        for (const Seconds free_at : state.freeAt)
            capacity += free_at <= start ? 1 : 0;
        for (Seconds &free_at : state.freeAt)
            free_at =
                std::max(free_at, start) + model.prefillSeconds;
        state.lastPrefillStart = start;
        state.groupSize = 1;
        state.groupCapacity = std::max(capacity, 1u);
        decode_start = start + model.prefillSeconds;
    }
    *slot = decode_start + decode_seconds;

    // Prune drained commitments before recording the new one: no
    // arrival moves time backwards, so they can never matter again.
    std::erase_if(state.commitments,
                  [arrival](const Commitment &c) {
                      return c.finish <= arrival;
                  });
    state.commitments.push_back(
        Commitment{decode_start, *slot,
                   static_cast<double>(generate_tokens)});

    // The index counts exactly what outstandingRequests(replica,
    // arrival) counts: commitments finishing after the clock.
    if (indexed()) {
        expireThrough(arrival);
        if (*slot > arrival) {
            expiry_.emplace_back(*slot, replica);
            std::push_heap(expiry_.begin(), expiry_.end(),
                           std::greater<>{});
            ++live_[replica];
            rekey(replica);
        }
    }
}

RouteDecision
Router::routeShortestQueue(Seconds arrival,
                           std::uint32_t generate_tokens)
{
    if (!indexed())
        throw std::logic_error(
            "Router::routeShortestQueue: " + routerPolicyName(policy_) +
            " router keeps no shortest-queue index");
    expireThrough(arrival);
    ++routed_;
    const std::uint32_t chosen = shortest_.argmin();
    if (chosen == shortest_.size())
        return RouteDecision{-1,
                             std::numeric_limits<double>::infinity()};
    const Seconds ttft = estimateTtft(chosen, arrival);
    commit(chosen, arrival, generate_tokens);
    return RouteDecision{static_cast<int>(chosen), ttft};
}

RouteDecision
Router::route(Seconds arrival, std::uint32_t generate_tokens,
              const std::vector<ReplicaObservation> *observed)
{
    const auto n =
        static_cast<std::uint32_t>(replicas_.size());
    // Feedback policies rank by one observation per replica;
    // routing them on anything else would read garbage.
    if (routerPolicyNeedsObservations(policy_) &&
        (observed == nullptr || observed->size() != n))
        throw std::invalid_argument(
            "Router::route: " + routerPolicyName(policy_) +
            " needs one observation per replica (" +
            std::to_string(n) + " replicas, " +
            std::to_string(observed == nullptr ? 0 : observed->size()) +
            " observations)");
    // With no routable replica there is nowhere legal to send the
    // request: shed.  (With at least one, every ranking below finds
    // a candidate, since the first routable entry always beats the
    // infinite initial best.)
    if (routableCount_ == 0) {
        ++routed_;
        return RouteDecision{-1,
                             std::numeric_limits<double>::infinity()};
    }
    const auto allowed = [this](std::uint32_t i) {
        return routable_[i] != 0;
    };
    std::uint32_t chosen = 0;
    switch (policy_) {
    case RouterPolicy::RoundRobin:
        chosen = static_cast<std::uint32_t>(routed_ % n);
        // The cursor position may be unroutable: take the next
        // routable replica at or after it, preserving the
        // interleave over the routable set.
        while (!allowed(chosen))
            chosen = (chosen + 1) % n;
        break;
    case RouterPolicy::TrueJsq: {
        std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!allowed(i))
                continue;
            const std::uint32_t depth = (*observed)[i].outstanding;
            if (depth < best) {
                best = depth;
                chosen = i;
            }
        }
        break;
    }
    case RouterPolicy::LeastActualBacklog: {
        double best = std::numeric_limits<double>::infinity();
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!allowed(i))
                continue;
            const double backlog = (*observed)[i].backlogTokens;
            if (backlog < best) {
                best = backlog;
                chosen = i;
            }
        }
        break;
    }
    case RouterPolicy::JoinShortestQueue: {
        std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!allowed(i))
                continue;
            const std::uint32_t depth =
                outstandingRequests(i, arrival);
            if (depth < best) {
                best = depth;
                chosen = i;
            }
        }
        break;
    }
    case RouterPolicy::LeastOutstandingTokens: {
        double best = std::numeric_limits<double>::infinity();
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!allowed(i))
                continue;
            const double backlog = outstandingTokens(i, arrival);
            if (backlog < best) {
                best = backlog;
                chosen = i;
            }
        }
        break;
    }
    case RouterPolicy::SloAware: {
        // Min estimated TTFT, tie-broken by least outstanding
        // tokens: under light load every replica estimates
        // "prefill only", and without the tie-break the policy
        // degenerates into packing replica 0.
        Seconds best = std::numeric_limits<double>::infinity();
        double best_backlog =
            std::numeric_limits<double>::infinity();
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!allowed(i))
                continue;
            const Seconds ttft = estimateTtft(i, arrival);
            const double backlog = outstandingTokens(i, arrival);
            if (ttft < best - 1.0e-12 ||
                (ttft < best + 1.0e-12 &&
                 backlog < best_backlog)) {
                best = std::min(ttft, best);
                best_backlog = backlog;
                chosen = i;
            }
        }
        if (best > deadline_) {
            // Even the least-loaded replica would miss the deadline:
            // shed at the door instead of poisoning the tail.
            ++routed_;
            return RouteDecision{-1, best};
        }
        break;
    }
    }
    ++routed_;
    const Seconds ttft = estimateTtft(chosen, arrival);
    commit(chosen, arrival, generate_tokens);
    return RouteDecision{static_cast<int>(chosen), ttft};
}

} // namespace hermes::sched
