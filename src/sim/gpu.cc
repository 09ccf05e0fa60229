#include "sim/gpu.hh"

// gpr:lint-allow-file(D1): timing whitelist — PhaseClock reads feed only
// per-phase seconds diagnostics, never simulated state or cycle counts.

#include <algorithm>
#include <chrono>
#include <limits>

#include "arch/occupancy.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"
#include "sim/structure_registry.hh"

namespace gpr {
namespace {

constexpr Cycle kDefaultMaxCycles = 50'000'000;

using PhaseClock = std::chrono::steady_clock;

double
secondsSince(PhaseClock::time_point start)
{
    return std::chrono::duration<double>(PhaseClock::now() - start)
        .count();
}

} // namespace

Gpu::Gpu(const GpuConfig& config)
    : config_(config)
{
    sms_.reserve(config.numSms);
    for (SmId i = 0; i < config.numSms; ++i)
        sms_.push_back(std::make_unique<SmCore>(config, i));
    if (config.l2Bytes > 0) {
        l2_.emplace(TargetStructure::L2Cache, /*sm=*/0, config.l2Lines(),
                    config.cacheLineWords());
    }
}

std::uint64_t
Gpu::structureBits(TargetStructure structure) const
{
    return structureBitsTotal(config_, structure);
}

void
Gpu::applyFault(const FaultSpec& fault)
{
    const StructureSpec& spec = structureSpec(fault.structure);
    const std::uint64_t bits_per_instance = spec.bitsPerSm(config_);
    GPR_ASSERT(bits_per_instance > 0,
               "fault targets a structure this chip does not have");

    // The pattern upsets the aligned width-bit cell group containing
    // the sampled bit.  Width divides 32 and every structure's
    // per-instance bits, so the group stays inside one instance and
    // inside one 32-bit word of word storage.  The one chip-shared
    // structure is the L2, a single instance (no SM split).
    const unsigned width = faultPatternWidth(fault.pattern);
    const bool chip = spec.scope == StructureScope::Chip;
    GPR_ASSERT(!chip || (fault.structure == TargetStructure::L2Cache && l2_),
               "unhandled chip-scoped structure");
    const std::uint64_t instance = fault.bitIndex / bits_per_instance;
    GPR_ASSERT(instance < (chip ? 1 : sms_.size()),
               "fault bit index out of range");
    BitIndex local = fault.bitIndex % bits_per_instance;
    local -= local % width;
    const std::uint64_t mask = (std::uint64_t{1} << width) - 1;

    if (!fault.persistent()) {
        if (!chip) {
            sms_[instance]->applyFault(fault.structure, local, mask);
            return;
        }
        for (unsigned k = 0; k < width; ++k)
            l2_->flipBit(local + k);
        return;
    }
    SmCore::PersistentFault pf;
    pf.structure = fault.structure;
    pf.firstBit = local;
    pf.mask = mask;
    pf.value = faultForcedValue(fault);
    if (!chip) {
        sms_[instance]->bindPersistentFault(pf);
        persistent_sm_ = static_cast<std::int64_t>(instance);
        return;
    }
    GPR_ASSERT(spec.persistenceHook == PersistenceHook::CycleReassert,
               "L2 persistence is cycle-reasserted");
    persistent_l2_ = pf;
}

GpuCheckpoint
Gpu::snapshot() const
{
    GpuCheckpoint cp;
    cp.sms.reserve(sms_.size());
    for (const auto& sm : sms_)
        cp.sms.push_back(sm->snapshot());
    cp.l2 = l2_;
    cp.nextBlock = next_block_;
    cp.dispatchRr = dispatch_rr_;
    return cp;
}

void
Gpu::restore(const GpuCheckpoint& cp)
{
    GPR_ASSERT(cp.sms.size() == sms_.size() &&
                   cp.l2.has_value() == l2_.has_value(),
               "checkpoint was taken on a chip with a different SM count");
    anchor_ = nullptr; // full restore rebases every storage's tracking
    for (std::size_t i = 0; i < sms_.size(); ++i)
        sms_[i]->restore(cp.sms[i]);
    l2_ = cp.l2;
    next_block_ = cp.nextBlock;
    dispatch_rr_ = cp.dispatchRr;
}

void
Gpu::anchorTo(const GpuCheckpoint& baseline)
{
    restore(baseline);
    for (auto& sm : sms_)
        sm->markStoragesClean();
    if (l2_)
        l2_->markCleanForRestore();
    anchor_ = &baseline;
}

void
Gpu::restoreDelta(const GpuCheckpointDelta& d, MemoryImage& image)
{
    GPR_ASSERT(anchor_ != nullptr,
               "delta resume on a device not anchored to a baseline");
    GPR_ASSERT(d.smStorage.size() == sms_.size() &&
                   d.smControl.size() == sms_.size(),
               "delta was recorded on a chip with a different SM count");
    for (std::size_t i = 0; i < sms_.size(); ++i) {
        sms_[i]->revertStorages(anchor_->sms[i]);
        sms_[i]->applyStorageDelta(d.smStorage[i]);
        sms_[i]->restoreControl(d.smControl[i]);
    }
    if (l2_) {
        l2_->revertTo(*anchor_->l2);
        l2_->applyDelta(d.l2);
    }
    next_block_ = d.nextBlock;
    dispatch_rr_ = d.dispatchRr;
    image.revertTo(anchor_->memory);
    image.applyDelta(d.memory);
}

std::uint64_t
Gpu::deviceStateHash() const
{
    StateHash h;
    for (const auto& sm : sms_)
        sm->hashInto(h);
    if (l2_)
        l2_->hashInto(h);
    h.mix(next_block_);
    h.mix(dispatch_rr_);
    return h.value();
}

void
Gpu::dispatchBlocks(RunContext& ctx, Cycle now)
{
    // Round-robin over SMs, one block per step, until nothing fits.
    bool any_progress = true;
    while (next_block_ < num_blocks_ && any_progress) {
        any_progress = false;
        for (std::uint32_t probe = 0;
             probe < sms_.size() && next_block_ < num_blocks_; ++probe) {
            const std::uint32_t sm =
                (dispatch_rr_ + probe) % sms_.size();
            if (sms_[sm]->tryDispatchBlock(ctx, next_block_, now)) {
                ++next_block_;
                any_progress = true;
            }
        }
        dispatch_rr_ = (dispatch_rr_ + 1) % sms_.size();
    }
}

RunResult
Gpu::run(const Program& prog, const LaunchConfig& launch, MemoryImage image,
         const RunOptions& options)
{
    // Configuration validation (throws on user error).  This also
    // guarantees that at least one block fits on an SM.
    computeOccupancy(config_, prog, launch.threadsPerBlock(),
                     std::max(1u, launch.numBlocks()));
    GPR_ASSERT(launch.numBlocks() > 0, "empty grid");

    GPR_ASSERT(!options.resumeDelta ||
                   (!options.observer && !options.recorder),
               "a resumed run cannot be observed or re-recorded");
    GPR_ASSERT(options.imageInOut ? options.resumeDelta != nullptr
                                  : options.resumeDelta == nullptr,
               "delta resume and imageInOut come as a pair");
    GPR_ASSERT(!options.recorder || !options.fault,
               "golden recordings are taken on the fault-free run");
    if (options.fault &&
        options.fault->behavior == FaultBehavior::Intermittent) {
        GPR_ASSERT(options.fault->intermittentPeriod > 0 &&
                       options.fault->intermittentActive > 0 &&
                       options.fault->intermittentActive <=
                           options.fault->intermittentPeriod,
                   "bad intermittent duty cycle");
    }

    RunResult result;
    RunContext ctx;
    ctx.config = &config_;
    ctx.program = &prog;
    ctx.launch = &launch;
    MemoryImage* const img =
        options.imageInOut ? options.imageInOut : &image;
    ctx.memory = img;
    ctx.observer = options.observer;
    ctx.stats = &result.stats;
    ctx.l2 = l2_ ? &*l2_ : nullptr;

    ctx.warpsPerBlock = ceilDiv(launch.threadsPerBlock(),
                                config_.warpWidth);
    ctx.vrfWordsPerBlock =
        ctx.warpsPerBlock * config_.warpWidth * prog.numVRegs();
    ctx.srfWordsPerBlock = ctx.warpsPerBlock * prog.numSRegs();
    ctx.ldsWordsPerBlock = ceilDiv(prog.smemBytes(), 4u);

    const Cycle max_cycles =
        options.maxCycles ? options.maxCycles : kDefaultMaxCycles;
    bool fault_pending = options.fault.has_value();

    // Occupancy integrators (word-cycles / warp-slot-cycles).
    double vrf_occ_acc = 0.0;
    double srf_occ_acc = 0.0;
    double lds_occ_acc = 0.0;
    double warp_occ_acc = 0.0;

    Cycle now = 0;
    std::uint64_t last_completed = 0;
    num_blocks_ = launch.numBlocks();
    persistent_sm_ = -1; // reset()/restore() clear the per-SM binding
    persistent_l2_.reset();

    // Encode the current state as a delta against the recorder's
    // baseline: the cycle-0 checkpoint and every requested one.
    auto record_delta = [&] {
        const GpuCheckpoint& base = options.recorder->baseline;
        GpuCheckpointDelta d;
        d.now = now;
        d.smStorage.resize(sms_.size());
        d.smControl.reserve(sms_.size());
        for (std::size_t i = 0; i < sms_.size(); ++i) {
            sms_[i]->captureStorageDelta(base.sms[i], d.smStorage[i]);
            d.smControl.push_back(sms_[i]->captureControl());
        }
        if (l2_)
            l2_->captureDelta(*base.l2, d.l2);
        d.nextBlock = next_block_;
        d.dispatchRr = dispatch_rr_;
        d.memPipe = ctx.memPipe;
        d.stats = result.stats;
        img->captureDelta(base.memory, d.memory);
        d.vrfOccAcc = vrf_occ_acc;
        d.srfOccAcc = srf_occ_acc;
        d.ldsOccAcc = lds_occ_acc;
        d.warpOccAcc = warp_occ_acc;
        d.lastCompleted = last_completed;
        options.recorder->deltas.push_back(std::move(d));
    };

    if (options.resumeDelta) {
        // Anchored delta resume: revert only the pages the previous run
        // dirtied, then lay the delta's pages and control state on top.
        // The checkpoint holds the state at the *start* of cycle d.now,
        // so the loop picks up exactly where the recorded run left off.
        const auto t0 = PhaseClock::now();
        const GpuCheckpointDelta& d = *options.resumeDelta;
        GPR_ASSERT(!options.fault || options.fault->cycle >= d.now,
                   "fault predates the resume checkpoint");
        restoreDelta(d, *img);
        ctx.memPipe = d.memPipe;
        result.stats = d.stats;
        vrf_occ_acc = d.vrfOccAcc;
        srf_occ_acc = d.srfOccAcc;
        lds_occ_acc = d.ldsOccAcc;
        warp_occ_acc = d.warpOccAcc;
        last_completed = d.lastCompleted;
        now = d.now;
        result.restoreSeconds += secondsSince(t0);
    } else {
        for (auto& sm : sms_)
            sm->reset();
        if (l2_) {
            l2_.emplace(TargetStructure::L2Cache, /*sm=*/0,
                        config_.l2Lines(), config_.cacheLineWords());
            ctx.l2 = &*l2_;
        }
        anchor_ = nullptr;
        next_block_ = 0;
        dispatch_rr_ = 0;
        dispatchBlocks(ctx, now);

        if (options.recorder) {
            // Capture the baseline every delta checkpoint encodes
            // against, plus a delta for cycle 0 itself (the checkpoint
            // that serves faults before the first requested cycle): its
            // page sets are empty, but it carries the control state and
            // the free lists and allocation counters applyStorageDelta
            // adopts wholesale.  From here on the dirty tracking measures
            // divergence from the baseline.
            GpuCheckpoint& base = options.recorder->baseline;
            base = snapshot();
            base.memory = *img;
            for (auto& sm : sms_)
                sm->markStoragesClean();
            img->markCleanForRestore();
            if (l2_)
                l2_->markCleanForRestore();
            record_delta();
        }
    }

    std::size_t rec_idx = 0;
    auto finalize = [&](TrapKind trap) {
        result.trap = trap;
        result.stats.cycles = now + 1;
        const double cycles = static_cast<double>(result.stats.cycles);
        const double chip_vrf =
            static_cast<double>(config_.regFileWordsPerSm) * config_.numSms;
        const double chip_srf =
            static_cast<double>(config_.scalarRegWordsPerSm) *
            config_.numSms;
        const double chip_lds =
            static_cast<double>(config_.smemWordsPerSm()) * config_.numSms;
        const double chip_warps =
            static_cast<double>(config_.maxWarpsPerSm) * config_.numSms;
        result.stats.avgRegFileOccupancy =
            chip_vrf > 0 ? vrf_occ_acc / (cycles * chip_vrf) : 0.0;
        result.stats.avgScalarRegOccupancy =
            chip_srf > 0 ? srf_occ_acc / (cycles * chip_srf) : 0.0;
        result.stats.avgSmemOccupancy =
            chip_lds > 0 ? lds_occ_acc / (cycles * chip_lds) : 0.0;
        result.stats.avgWarpOccupancy =
            chip_warps > 0 ? warp_occ_acc / (cycles * chip_warps) : 0.0;
        if (ctx.observer)
            ctx.observer->onKernelEnd(now);
        if (!options.imageInOut)
            result.memory = std::move(image);
        return result;
    };

    while (result.stats.blocksCompleted < num_blocks_) {
        if (fault_pending && now >= options.fault->cycle) {
            applyFault(*options.fault);
            fault_pending = false;
        }

        // Assert the persistent fault (if one is bound) for this cycle.
        // The tick is idempotent, so landing on extra idle cycles — as
        // a checkpoint-resumed run may, relative to from-scratch —
        // cannot diverge the trajectory.
        if (persistent_sm_ >= 0 || persistent_l2_) {
            const FaultSpec& f = *options.fault;
            const bool active = f.behavior != FaultBehavior::Intermittent ||
                                (now - f.cycle) % f.intermittentPeriod <
                                    f.intermittentActive;
            if (persistent_sm_ >= 0) {
                sms_[static_cast<std::size_t>(persistent_sm_)]
                    ->persistentFaultTick(active);
            } else if (active) {
                for (unsigned k = 0; (persistent_l2_->mask >> k) != 0; ++k)
                    if ((persistent_l2_->mask >> k) & 1)
                        l2_->forceBit(persistent_l2_->firstBit + k,
                                      persistent_l2_->value);
            }
        }

        if (options.recorder &&
            rec_idx < options.recorder->checkpointCycles.size() &&
            now >= options.recorder->checkpointCycles[rec_idx]) {
            record_delta();
            ++rec_idx;
        }

        bool issued = false;
        Cycle next_event = std::numeric_limits<Cycle>::max();
        for (auto& sm : sms_) {
            const auto trap = sm->stepCycle(ctx, now, issued, next_event);
            if (trap)
                return finalize(*trap);
        }

        // Refill SMs after block completions.
        if (result.stats.blocksCompleted != last_completed) {
            last_completed = result.stats.blocksCompleted;
            if (next_block_ < num_blocks_)
                dispatchBlocks(ctx, now);
        }

        if (result.stats.blocksCompleted >= num_blocks_) {
            // Account the final cycle before finishing.
            for (const auto& sm : sms_) {
                vrf_occ_acc += sm->allocatedVrfWords();
                srf_occ_acc += sm->allocatedSrfWords();
                lds_occ_acc += sm->allocatedLdsWords();
                warp_occ_acc += sm->residentWarps();
            }
            break;
        }

        Cycle next;
        if (issued) {
            next = now + 1;
        } else {
            if (next_event == std::numeric_limits<Cycle>::max()) {
                // Nothing can ever issue again: warps all parked at
                // barriers that cannot be satisfied.
                return finalize(TrapKind::BarrierDeadlock);
            }
            next = std::max(now + 1, next_event);
        }
        if (fault_pending && options.fault->cycle > now) {
            next = std::min(next, std::max(now + 1, options.fault->cycle));
        }
        // Land exactly on requested checkpoint cycles.
        if (options.recorder &&
            rec_idx < options.recorder->checkpointCycles.size()) {
            next = std::min(
                next, std::max(now + 1,
                               options.recorder->checkpointCycles[rec_idx]));
        }

        // Integrate occupancy over [now, next).
        const double dt = static_cast<double>(next - now);
        std::uint64_t vrf_alloc = 0, srf_alloc = 0, lds_alloc = 0,
                      warps_resident = 0;
        for (const auto& sm : sms_) {
            vrf_alloc += sm->allocatedVrfWords();
            srf_alloc += sm->allocatedSrfWords();
            lds_alloc += sm->allocatedLdsWords();
            warps_resident += sm->residentWarps();
        }
        vrf_occ_acc += static_cast<double>(vrf_alloc) * dt;
        srf_occ_acc += static_cast<double>(srf_alloc) * dt;
        lds_occ_acc += static_cast<double>(lds_alloc) * dt;
        warp_occ_acc += static_cast<double>(warps_resident) * dt;

        now = next;
        if (now > max_cycles)
            return finalize(TrapKind::Watchdog);
    }

    // Drain dirty cache lines into the image so RunResult::memory
    // reflects every store the kernel retired — including ones a fault
    // redirected to a corrupted address (the stale-data / wrong-address
    // SDC channel).  A corrupt tag can also trap here, which classifies
    // as a DUE exactly like an in-flight wrong-address access.
    for (auto& sm : sms_) {
        if (auto trap = sm->flushL1d(ctx, now))
            return finalize(*trap);
    }
    if (l2_) {
        if (auto trap = l2_->flushDirty(nullptr, *img, ctx.observer, now))
            return finalize(*trap);
    }

    return finalize(TrapKind::None);
}

} // namespace gpr
