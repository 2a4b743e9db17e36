#include "scen/runner.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "exec/thread_pool.h"
#include "fault/fault_model.h"
#include "kad/node_arena.h"
#include "sim/periodic.h"

namespace kadsim::scen {

namespace {
constexpr std::uint32_t kNoLivePos = 0xFFFFFFFFu;
/// Bounded data-object registry: lookups draw targets from the most recent
/// disseminations (older objects have expired from node storage anyway).
constexpr std::size_t kDataRegistryCap = 4096;

/// Seed for region r. Region 0 keeps the scenario seed unchanged — that is
/// what makes regions = 1 replay the unsharded engine bit-for-bit; the
/// golden-ratio mix gives the other regions decorrelated streams.
std::uint64_t region_seed(std::uint64_t seed, int region) {
    if (region == 0) return seed;
    return seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(region));
}
}  // namespace

/// One shard of the id space: a complete, self-contained overlay simulation
/// (own clock, network, arena, RNG streams, fault model). For regions = 1
/// this is exactly the pre-sharding Runner. Regions never touch each other's
/// state; the owning Runner merges their outputs in region order.
class Runner::Region {
public:
    Region(const ScenarioConfig& config, int index, int count)
        : config_(config),
          index_(index),
          count_(count),
          sim_(region_seed(config.seed, index)),
          net_(sim_, config.latency, net::LossModel::from_level(config.loss)),
          rng_(sim_.split_rng()),
          fault_(fault::make_fault_model(config.fault)),
          arena_(config.kad, sim_, net_),
          probe_arena_(kad::LookupArena::Params{
              config.kad.k, config.kad.alpha, 0, config.kad.lookup_boost}) {
        schedule_initial_joins();
        start_periodic_tasks();
    }

    void step_to(sim::SimTime t) { sim_.run_until(t); }

    [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
    [[nodiscard]] net::Network& net() noexcept { return net_; }
    [[nodiscard]] const kad::NodeArena& arena() const noexcept { return arena_; }
    [[nodiscard]] kad::NodeArena& arena() noexcept { return arena_; }
    [[nodiscard]] const std::vector<net::Address>& live() const noexcept {
        return live_;
    }
    [[nodiscard]] const std::vector<kad::NodeId>& data_registry() const noexcept {
        return data_registry_;
    }
    [[nodiscard]] const stats::TimeSeries& size_series() const noexcept {
        return size_series_;
    }
    [[nodiscard]] std::uint64_t joins() const noexcept { return joins_; }
    [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }

    [[nodiscard]] std::uint64_t lookup_arena_bytes() const noexcept {
        return arena_.lookup_arena().memory_bytes() + probe_arena_.memory_bytes();
    }

    /// `count` side-effect-free lookup probes over this region's live
    /// routing tables (see Runner::run_lookup_probes for the contract): each
    /// probe picks a random live source and a random target, replays the
    /// iterative FIND_NODE walk synchronously against the current tables
    /// (dead contacts answer as timeouts), and succeeds when it reaches the
    /// ground-truth closest live node. The probe RNG is derived from the
    /// region seed and the current instant — the simulation streams (rng_,
    /// per-node RNGs) are never advanced.
    void run_probes(int count, bool verify_truth, stats::ProbeStats& out) {
        if (count <= 0 || live_.empty()) return;
        util::Rng prng(region_seed(config_.seed, index_) ^
                       (0xD1B54A32D192ED03ull *
                        static_cast<std::uint64_t>(sim_.now() + 1)));
        const auto k = static_cast<std::size_t>(config_.kad.k);
        for (int i = 0; i < count; ++i) {
            const net::Address src_global =
                live_[prng.next_below(static_cast<std::uint64_t>(live_.size()))];
            const net::Address src = local_of(src_global);
            const kad::NodeId self = arena_.id_of(src);
            const kad::NodeId target = kad::NodeId::random(prng, config_.kad.b);
            // Ground truth: the live node closest to the target (O(live);
            // probes are per-snapshot, not per-event). The throughput bench
            // skips it (verify_truth = false) — the scan would dominate the
            // walk it is trying to measure. The truth scan consumes no
            // randomness, so the walk itself is identical either way.
            net::Address truth = src;
            if (verify_truth) {
                kad::NodeId best = target.distance_to(self);
                for (const net::Address g : live_) {
                    const net::Address local = local_of(g);
                    const kad::NodeId d = target.distance_to(arena_.id_of(local));
                    if (d < best) {
                        best = d;
                        truth = local;
                    }
                }
            }

            const auto slot = probe_arena_.begin(
                self, target, kad::LookupMode::kFindNode, false, 0);
            probe_seeds_.clear();
            arena_.table_of(src).closest(target, k, probe_seeds_);
            probe_arena_.seed(slot, probe_seeds_);
            while (auto next = probe_arena_.next_query(slot)) {
                const net::Address peer = next->address;
                if (arena_.alive(peer)) {
                    probe_resp_.clear();
                    arena_.table_of(peer).closest(target, k, probe_resp_, &self);
                    probe_arena_.on_response(slot, next->id, probe_resp_, false);
                } else {
                    probe_arena_.on_failure(slot, next->id);
                }
            }
            ++out.probes;
            probe_closest_.clear();
            probe_arena_.successful_closest(slot, probe_closest_);
            bool ok;
            if (verify_truth) {
                ok = truth == src;  // the source itself is closest
                if (!ok) {
                    const kad::NodeId truth_id = arena_.id_of(truth);
                    for (const auto& c : probe_closest_) {
                        if (c.id == truth_id) {
                            ok = true;
                            break;
                        }
                    }
                }
            } else {
                // Unverified mode: "success" = the walk terminated with a
                // non-empty confirmed shortlist.
                ok = !probe_closest_.empty();
            }
            if (ok) ++out.succeeded;
            out.hops.add(probe_arena_.hop_count(slot));
            probe_arena_.release(slot);
        }
    }

    [[nodiscard]] net::Address local_of(net::Address global) const noexcept {
        return global / static_cast<net::Address>(count_);
    }
    [[nodiscard]] net::Address global_of(net::Address local) const noexcept {
        return local * static_cast<net::Address>(count_) +
               static_cast<net::Address>(index_);
    }

    /// Total stored contacts across this region's live tables — the counting
    /// pass that sizes the flat capture slab. O(live), O(1) per table.
    [[nodiscard]] std::size_t live_contact_total() const noexcept {
        std::size_t total = 0;
        for (const net::Address global : live_) {
            total += arena_.contact_count_of(local_of(global));
        }
        return total;
    }

    /// Fills this region's slice of a prepared FlatSnapshot: rows
    /// [node_base, node_base + live) and contacts [contact_base, ...), in
    /// live order (global addresses). Slices of distinct regions are
    /// disjoint, so sharded captures run this concurrently; no allocation.
    void capture_into(graph::FlatSnapshot& flat, std::size_t node_base,
                      std::size_t contact_base) const {
        std::uint32_t* addresses = flat.addresses_data() + node_base;
        std::uint32_t* offsets = flat.offsets_data() + node_base;
        net::Address* contacts = flat.contacts_data();
        // The tables store local addresses; the snapshot speaks global. The
        // local→global affine map rides inside the export copy itself.
        const auto mul = static_cast<net::Address>(count_);
        const auto add = static_cast<net::Address>(index_);
        std::size_t pos = contact_base;
        for (std::size_t i = 0; i < live_.size(); ++i) {
            const net::Address global = live_[i];
            addresses[i] = global;
            offsets[i] = static_cast<std::uint32_t>(pos);
            pos += arena_.export_contacts_of(local_of(global), contacts + pos,
                                             mul, add);
        }
    }

    /// Region-local snapshot (the fault view's routing window), captured
    /// into a reusable member buffer — warm fault-phase minutes allocate
    /// nothing.
    [[nodiscard]] const graph::RoutingSnapshot& capture_region_snapshot() const {
        const auto start = std::chrono::steady_clock::now();
        fault_snap_.time_ms = sim_.now();
        fault_snap_.removed_total = crashes_;
        graph::FlatSnapshot& flat = fault_snap_.flat();
        flat.prepare(live_.size(), live_contact_total());
        capture_into(flat, 0, 0);
        capture_us_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        return fault_snap_;
    }

    [[nodiscard]] std::uint64_t capture_us() const noexcept { return capture_us_; }

    void accumulate(RunnerTotals& t) const {
        for (net::Address local = 0; local < arena_.size(); ++local) {
            const auto& c = arena_.counters_of(local);
            t.protocol.lookups_started += c.lookups_started;
            t.protocol.lookups_completed += c.lookups_completed;
            t.protocol.values_found += c.values_found;
            t.protocol.stores_sent += c.stores_sent;
            t.protocol.rpcs_sent += c.rpcs_sent;
            t.protocol.rpcs_failed += c.rpcs_failed;
            t.protocol.requests_served += c.requests_served;
        }
        const net::NetworkCounters nc = net_.counters();
        t.network.sent += nc.sent;
        t.network.delivered += nc.delivered;
        t.network.dropped_loss += nc.dropped_loss;
        t.network.dropped_dead += nc.dropped_dead;
        t.joins += joins_;
        t.crashes += crashes_;
        t.events_executed += sim_.events_executed();
    }

private:
    class FaultViewImpl;

    /// This region's share of the initial population (remainder spread over
    /// the low regions).
    [[nodiscard]] int initial_share() const noexcept {
        return config_.initial_size / count_ +
               (index_ < config_.initial_size % count_ ? 1 : 0);
    }

    void schedule_initial_joins() {
        // "A new node joins the network at a random point in the simulated
        // time that is evenly distributed between 0 and 30 minutes" (§5.3).
        const auto window = static_cast<std::uint64_t>(config_.phases.setup_end);
        const int share = initial_share();
        for (int i = 0; i < share; ++i) {
            const auto at = static_cast<sim::SimTime>(rng_.next_below(window));
            sim_.schedule_at(at, [this] { add_node(); });
        }
    }

    void start_periodic_tasks() {
        // One master minute tick handles faults, traffic and the size series;
        // the per-action instants are drawn uniformly inside each minute
        // (§5.3).
        minute_task_ = sim::PeriodicTask::start(
            sim_, 0, sim::kMinute, [this](sim::SimTime now) {
                size_series_.add(sim::to_minutes(now),
                                 static_cast<double>(live_.size()));
                if (config_.traffic.enabled) traffic_tick();
                if (config_.fault.any() && now >= config_.phases.stabilization_end &&
                    now < config_.phases.end) {
                    fault_tick();
                }
            });
    }

    void traffic_tick() {
        // Snapshot the live list: nodes joining during this minute start
        // traffic with the next tick.
        for (const net::Address global : live_) {
            const net::Address local = local_of(global);
            for (int i = 0; i < config_.traffic.lookups_per_minute; ++i) {
                const auto delay = static_cast<sim::SimTime>(
                    rng_.next_below(static_cast<std::uint64_t>(sim::kMinute)));
                sim_.schedule_in(delay, [this, local] { issue_lookup(local); });
            }
            for (int i = 0; i < config_.traffic.disseminations_per_minute; ++i) {
                const auto delay = static_cast<sim::SimTime>(
                    rng_.next_below(static_cast<std::uint64_t>(sim::kMinute)));
                sim_.schedule_in(delay, [this, local] { issue_dissemination(local); });
            }
        }
    }

    void fault_tick();  // defined after FaultViewImpl

    void add_node() {
        const net::Address local = net_.register_endpoint();
        kad::KademliaNode* fresh = arena_.add_node(node_id_for(local), local);

        // "The bootstrap node is randomly chosen from the already joined
        // nodes" (§5.3) — completely random, and any node can be affected by
        // churn.
        std::optional<kad::Contact> bootstrap;
        if (!live_.empty()) {
            const net::Address pick =
                live_[rng_.next_below(static_cast<std::uint64_t>(live_.size()))];
            bootstrap = arena_.node_at(local_of(pick))->contact();
        }

        live_pos_.resize(arena_.size(), kNoLivePos);
        live_pos_[local] = static_cast<std::uint32_t>(live_.size());
        live_.push_back(global_of(local));
        ++joins_;

        fresh->join(bootstrap);
    }

    void execute_removals();  // defined after FaultViewImpl

    void remove_node(net::Address global) {
        const net::Address local = local_of(global);
        KADSIM_ASSERT(local < live_pos_.size() && live_pos_[local] != kNoLivePos);
        const std::uint32_t index = live_pos_[local];

        // Swap-remove from the live list, keeping positions consistent.
        live_[index] = live_.back();
        live_pos_[local_of(live_[index])] = index;
        live_.pop_back();
        live_pos_[local] = kNoLivePos;
        ++crashes_;

        arena_.node_at(local)->crash();
    }

    void issue_lookup(net::Address local) {
        kad::KademliaNode* n = arena_.node_at(local);
        if (n == nullptr || !n->alive()) return;
        kad::NodeId target;
        if (!data_registry_.empty()) {
            target = data_registry_[rng_.next_below(
                static_cast<std::uint64_t>(data_registry_.size()))];
        } else {
            target = kad::NodeId::random(rng_, config_.kad.b);
        }
        n->lookup_value(target, {});
    }

    void issue_dissemination(net::Address local) {
        kad::KademliaNode* n = arena_.node_at(local);
        if (n == nullptr || !n->alive()) return;
        const kad::NodeId key = next_data_id();
        n->disseminate(key, ++data_counter_, {});
    }

    [[nodiscard]] kad::NodeId next_data_id() {
        // Region-seed-keyed names keep data ids distinct across regions while
        // region 0 reproduces the unsharded name sequence exactly.
        const std::string name = "kadsim-data-" +
                                 std::to_string(region_seed(config_.seed, index_)) +
                                 "-" + std::to_string(data_counter_);
        const kad::NodeId id = kad::NodeId::hash_of(name, config_.kad.b);
        if (data_registry_.size() < kDataRegistryCap) {
            data_registry_.push_back(id);
        } else {
            data_registry_[data_counter_ % kDataRegistryCap] = id;
        }
        return id;
    }

    [[nodiscard]] kad::NodeId node_id_for(net::Address local) const {
        // "Identifiers are generated from a node's network address ... using
        // a cryptographically secure hash function" (§4.1). Keyed by the
        // *global* address, so ids are unique across regions and regions = 1
        // matches the unsharded sequence.
        const std::string key = "kadsim-node-" + std::to_string(config_.seed) + "-" +
                                std::to_string(global_of(local));
        return kad::NodeId::hash_of(key, config_.kad.b);
    }

    const ScenarioConfig& config_;
    int index_;
    int count_;
    sim::Simulator sim_;
    net::Network net_;
    util::Rng rng_;
    std::unique_ptr<fault::FaultModel> fault_;
    kad::NodeArena arena_;
    /// Scratch arena + buffers for run_probes (slot/buffers recycled across
    /// probes and waves — no steady-state allocation).
    kad::LookupArena probe_arena_;
    std::vector<kad::Contact> probe_seeds_;
    std::vector<kad::Contact> probe_resp_;
    std::vector<kad::Contact> probe_closest_;
    std::vector<net::Address> live_;       // global addresses, join order
    std::vector<std::uint32_t> live_pos_;  // local address → index into live_
    std::vector<kad::NodeId> data_registry_;
    std::uint64_t data_counter_ = 0;
    std::uint64_t joins_ = 0;
    std::uint64_t crashes_ = 0;
    stats::TimeSeries size_series_;
    std::unique_ptr<sim::PeriodicTask> minute_task_;
    /// Reusable fault-view snapshot (warm fault minutes refill it without
    /// allocating) and the cumulative capture-time counter.
    mutable graph::RoutingSnapshot fault_snap_;
    mutable std::uint64_t capture_us_ = 0;
};

/// The read-only overlay window handed to the fault model. One instance per
/// fault event; the routing snapshot is built on first use and cached for
/// the lifetime of the view, so models that ignore routing state pay
/// nothing. Addresses are global; the window covers this region only (under
/// sharding each region runs its own fault process).
class Runner::Region::FaultViewImpl final : public fault::FaultView {
public:
    explicit FaultViewImpl(const Region& region) : region_(region) {}

    [[nodiscard]] sim::SimTime now() const override { return region_.sim_.now(); }
    [[nodiscard]] const std::vector<net::Address>& live() const override {
        return region_.live_;
    }
    [[nodiscard]] bool is_live(net::Address address) const override {
        const net::Address local = region_.local_of(address);
        return local < region_.live_pos_.size() &&
               region_.live_pos_[local] != kNoLivePos;
    }
    [[nodiscard]] kad::NodeId node_id(net::Address address) const override {
        return region_.arena_.id_of(region_.local_of(address));
    }
    [[nodiscard]] int id_bits() const override { return region_.config_.kad.b; }
    [[nodiscard]] const graph::RoutingSnapshot& routing() const override {
        if (snapshot_ == nullptr) snapshot_ = &region_.capture_region_snapshot();
        return *snapshot_;
    }

private:
    const Region& region_;
    /// Borrowed from the region's reusable buffer — valid for the lifetime
    /// of this view (fault events are sequential; one view alive at a time).
    mutable const graph::RoutingSnapshot* snapshot_ = nullptr;
};

void Runner::Region::fault_tick() {
    // Draw order is part of the determinism contract (removal instants, then
    // arrival instants) — it reproduces the pre-fault-layer inlined churn.
    const FaultViewImpl view(*this);
    for (const sim::SimTime delay : fault_->removal_times(view, rng_)) {
        sim_.schedule_in(delay, [this] { execute_removals(); });
    }
    for (const sim::SimTime delay : fault_->arrivals(view, rng_)) {
        sim_.schedule_in(delay, [this] { add_node(); });
    }
}

void Runner::Region::execute_removals() {
    const FaultViewImpl view(*this);
    for (const net::Address victim : fault_->select_removals(view, rng_)) {
        remove_node(victim);
    }
}

Runner::Runner(ScenarioConfig config) : config_(std::move(config)) {
    config_.validate();
    const int count = config_.regions;
    regions_.reserve(static_cast<std::size_t>(count));
    for (int r = 0; r < count; ++r) {
        regions_.push_back(std::make_unique<Region>(config_, r, count));
    }
    if (count > 1) {
        int threads = config_.shard_threads;
        if (threads == 0) {
            threads = std::min(count,
                               static_cast<int>(std::thread::hardware_concurrency()));
        }
        // parallel_for runs on the workers plus the calling thread.
        if (threads > 1) pool_ = std::make_unique<exec::ThreadPool>(threads - 1);
    }
}

Runner::~Runner() = default;

void Runner::step_to(sim::SimTime t) {
    if (regions_.size() == 1) {
        regions_[0]->step_to(t);
        return;
    }
    const int count = static_cast<int>(regions_.size());
    if (pool_ == nullptr) {
        for (int r = 0; r < count; ++r) regions_[r]->step_to(t);
        return;
    }
    pool_->parallel_for(0, count, [this, t](int r) { regions_[r]->step_to(t); });
}

void Runner::run(sim::SimTime snapshot_interval,
                 const std::function<void(const graph::RoutingSnapshot&)>& on_snapshot) {
    KADSIM_ASSERT(snapshot_interval > 0);
    // Interval extraction state is local to this driver: snapshot() and
    // lookup_traffic() stay idempotent/cumulative for direct callers.
    stats::LookupTraffic prev;
    // One snapshot buffer for the whole run: capture() refills the flat slab
    // in place, so warm intervals allocate nothing.
    graph::RoutingSnapshot snap;
    for (sim::SimTime t = snapshot_interval; t <= config_.phases.end;
         t += snapshot_interval) {
        step_to(t);
        if (on_snapshot) {
            capture(snap);
            const stats::LookupTraffic cur = lookup_traffic();
            snap.lookups = cur.diff(prev);
            prev = cur;
            if (config_.traffic.probes_per_snapshot > 0) {
                snap.probes = run_lookup_probes(config_.traffic.probes_per_snapshot);
            }
            on_snapshot(snap);
        }
    }
    if (regions_[0]->sim().now() < config_.phases.end) step_to(config_.phases.end);
}

graph::RoutingSnapshot Runner::snapshot() const {
    graph::RoutingSnapshot snap;
    capture(snap);
    return snap;
}

void Runner::capture(graph::RoutingSnapshot& out) const {
    const auto start = std::chrono::steady_clock::now();
    out.time_ms = regions_[0]->sim().now();
    out.removed_total = 0;
    out.lookups = {};
    out.probes = {};
    // Counting pass: per-region prefix sums size the flat slab exactly, so
    // the fill below writes disjoint slices — safe to shard, and byte-wise
    // independent of the thread count (region order fixes the layout).
    const std::size_t count = regions_.size();
    capture_node_base_.resize(count);
    capture_contact_base_.resize(count);
    std::size_t nodes = 0;
    std::size_t contacts = 0;
    for (std::size_t r = 0; r < count; ++r) {
        capture_node_base_[r] = nodes;
        capture_contact_base_[r] = contacts;
        nodes += regions_[r]->live().size();
        contacts += regions_[r]->live_contact_total();
        out.removed_total += regions_[r]->crashes();
    }
    graph::FlatSnapshot& flat = out.flat();
    flat.prepare(nodes, contacts);
    if (pool_ != nullptr) {
        pool_->parallel_for(0, static_cast<int>(count), [this, &flat](int r) {
            const auto i = static_cast<std::size_t>(r);
            regions_[i]->capture_into(flat, capture_node_base_[i],
                                      capture_contact_base_[i]);
        });
    } else {
        for (std::size_t r = 0; r < count; ++r) {
            regions_[r]->capture_into(flat, capture_node_base_[r],
                                      capture_contact_base_[r]);
        }
    }
    capture_us_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

std::uint64_t Runner::snapshot_capture_us() const noexcept {
    std::uint64_t total = capture_us_;
    for (const auto& region : regions_) total += region->capture_us();
    return total;
}

int Runner::live_count() const noexcept {
    std::size_t n = 0;
    for (const auto& region : regions_) n += region->live().size();
    return static_cast<int>(n);
}

const std::vector<net::Address>& Runner::live_addresses() const {
    if (regions_.size() == 1) return regions_[0]->live();
    live_cache_.clear();
    for (const auto& region : regions_) {
        live_cache_.insert(live_cache_.end(), region->live().begin(),
                           region->live().end());
    }
    return live_cache_;
}

sim::Simulator& Runner::simulator() noexcept { return regions_[0]->sim(); }

net::Network& Runner::network() noexcept { return regions_[0]->net(); }

const stats::TimeSeries& Runner::size_series() const {
    if (regions_.size() == 1) return regions_[0]->size_series();
    // Every region ticks its minute task on the same schedule, so the series
    // align point-for-point; the merged series is their sum.
    series_cache_ = stats::TimeSeries{};
    const stats::TimeSeries& base = regions_[0]->size_series();
    for (std::size_t i = 0; i < base.size(); ++i) {
        double total = 0;
        for (const auto& region : regions_) {
            total += region->size_series().value_at(i);
        }
        series_cache_.add(base.time_at(i), total);
    }
    return series_cache_;
}

RunnerTotals Runner::totals() const {
    RunnerTotals t;
    for (const auto& region : regions_) region->accumulate(t);
    return t;
}

kad::KademliaNode* Runner::node_at(net::Address address) noexcept {
    const auto count = static_cast<net::Address>(regions_.size());
    return regions_[address % count]->arena().node_at(address / count);
}

const kad::KademliaNode* Runner::node(net::Address address) const {
    const auto count = static_cast<net::Address>(regions_.size());
    const kad::KademliaNode* n =
        regions_[address % count]->arena().node_at(address / count);
    KADSIM_ASSERT(n != nullptr);
    return n;
}

kad::KademliaNode* Runner::node(net::Address address) {
    const auto count = static_cast<net::Address>(regions_.size());
    kad::KademliaNode* n = regions_[address % count]->arena().node_at(address / count);
    KADSIM_ASSERT(n != nullptr);
    return n;
}

const std::vector<kad::NodeId>& Runner::data_registry() const {
    if (regions_.size() == 1) return regions_[0]->data_registry();
    registry_cache_.clear();
    for (const auto& region : regions_) {
        registry_cache_.insert(registry_cache_.end(), region->data_registry().begin(),
                               region->data_registry().end());
    }
    return registry_cache_;
}

std::uint64_t Runner::arena_memory_bytes() const noexcept {
    std::uint64_t bytes = 0;
    for (const auto& region : regions_) bytes += region->arena().memory_bytes();
    return bytes;
}

std::uint64_t Runner::queue_memory_bytes() const noexcept {
    std::uint64_t bytes = 0;
    for (const auto& region : regions_) {
        bytes += region->sim().queue_memory_bytes();
    }
    return bytes;
}

std::uint64_t Runner::lookup_arena_bytes() const noexcept {
    std::uint64_t bytes = 0;
    for (const auto& region : regions_) bytes += region->lookup_arena_bytes();
    return bytes;
}

stats::LookupTraffic Runner::lookup_traffic() const {
    stats::LookupTraffic out;
    // Fixed region order — same merge contract as snapshot()/totals().
    for (const auto& region : regions_) out.merge(region->arena().lookup_traffic());
    return out;
}

stats::ProbeStats Runner::run_lookup_probes(int per_region, bool verify_truth) {
    const int count = static_cast<int>(regions_.size());
    std::vector<stats::ProbeStats> per(regions_.size());
    if (pool_ != nullptr) {
        // Regions probe concurrently (each touches only its own tables and
        // scratch arena); the merge below runs in fixed region order, so the
        // result is byte-identical for any thread count.
        pool_->parallel_for(0, count, [this, per_region, verify_truth, &per](int r) {
            regions_[static_cast<std::size_t>(r)]->run_probes(
                per_region, verify_truth, per[static_cast<std::size_t>(r)]);
        });
    } else {
        for (int r = 0; r < count; ++r) {
            regions_[static_cast<std::size_t>(r)]->run_probes(
                per_region, verify_truth, per[static_cast<std::size_t>(r)]);
        }
    }
    stats::ProbeStats out;
    for (const auto& p : per) out.merge(p);
    return out;
}

}  // namespace kadsim::scen
