#include "sim/sm_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/alu.hh"
#include "sim/structure_registry.hh"

namespace gpr {

SmCore::SmCore(const GpuConfig& config, SmId id)
    : config_(config),
      id_(id),
      vrf_(config.regFileWordsPerSm),
      lds_(config.smemWordsPerSm())
{
    if (config.scalarRegWordsPerSm > 0)
        srf_.emplace(config.scalarRegWordsPerSm);
    if (config.l1dBytesPerSm > 0) {
        l1d_.emplace(TargetStructure::L1DataCache, id,
                     config.l1dLinesPerSm(), config.cacheLineWords());
    }
    if (config.l1iBytesPerSm > 0) {
        l1i_.emplace(TargetStructure::L1InstructionCache, id,
                     config.l1iLinesPerSm(), config.cacheLineWords());
    }

    // The execute paths keep per-lane and per-bank scratch in
    // fixed-capacity arrays sized by the LaneMask width.
    GPR_ASSERT(config.warpWidth <= kMaxLanes,
               "warpWidth exceeds the ", kMaxLanes, " lanes of a LaneMask");
    GPR_ASSERT(config.smemBanks > 0 && config.smemBanks <= kMaxLanes,
               "smemBanks must lie in [1, ", kMaxLanes, "]");

    blocks_.resize(config.maxBlocksPerSm);
    warps_.resize(config.maxWarpsPerSm);
    warp_slot_used_.assign(config.maxWarpsPerSm, false);
    warp_age_.assign(config.maxWarpsPerSm, 0);
    issue_cycle_.assign(config.maxWarpsPerSm, kNeverIssues);
}

void
SmCore::reset()
{
    pfault_.reset(); // storage overlays die with the reassignment below
    vrf_ = WordStorage(config_.regFileWordsPerSm);
    if (srf_)
        srf_.emplace(config_.scalarRegWordsPerSm);
    lds_ = WordStorage(config_.smemWordsPerSm());
    if (l1d_) {
        l1d_.emplace(TargetStructure::L1DataCache, id_,
                     config_.l1dLinesPerSm(), config_.cacheLineWords());
    }
    if (l1i_) {
        l1i_.emplace(TargetStructure::L1InstructionCache, id_,
                     config_.l1iLinesPerSm(), config_.cacheLineWords());
    }

    for (auto& b : blocks_)
        b = BlockContext{};
    for (auto& w : warps_)
        w = WarpContext{};
    std::fill(warp_slot_used_.begin(), warp_slot_used_.end(), false);
    std::fill(warp_age_.begin(), warp_age_.end(), 0);
    resident_blocks_ = 0;
    resident_warps_ = 0;
    dispatch_seq_ = 0;
    rr_cursor_ = 0;
    gto_last_ = -1;
    invalidateIssue();
}

void
SmCore::applyFault(TargetStructure structure, BitIndex first_bit,
                   std::uint64_t mask)
{
    wake_cycle_ = 0;
    for (unsigned k = 0; (mask >> k) != 0; ++k) {
        if ((mask >> k) & 1)
            mutateBit(structure, first_bit + k, BitMutation::Flip);
    }
}

WordStorage&
SmCore::storageFor(TargetStructure structure)
{
    switch (structure) {
      case TargetStructure::VectorRegisterFile:
        return vrf_;
      case TargetStructure::ScalarRegisterFile:
        GPR_ASSERT(srf_, "no scalar register file on this architecture");
        return *srf_;
      case TargetStructure::SharedMemory:
        return lds_;
      default:
        panic("not a word-storage structure");
    }
}

void
SmCore::bindPersistentFault(const PersistentFault& fault)
{
    const StructureSpec& spec = structureSpec(fault.structure);
    GPR_ASSERT(spec.persistenceHook != PersistenceHook::None,
               "structure has no persistence hook");
    GPR_ASSERT(!pfault_, "at most one persistent fault per SM per run");
    GPR_ASSERT(fault.mask != 0, "empty persistent-fault mask");
    pfault_ = fault;
    if (spec.persistenceHook == PersistenceHook::StorageReadOverlay) {
        // The pattern mask is cell-aligned with width dividing 32, so it
        // never crosses the 32-bit word boundary.
        const auto word = static_cast<std::uint32_t>(fault.firstBit / 32);
        const auto shift = static_cast<unsigned>(fault.firstBit % 32);
        const Word word_mask = static_cast<Word>(fault.mask) << shift;
        storageFor(fault.structure)
            .setStuckBits(word, word_mask, fault.value ? word_mask : 0);
    }
}

void
SmCore::persistentFaultTick(bool active)
{
    if (!pfault_)
        return;
    wake_cycle_ = 0;
    const StructureSpec& spec = structureSpec(pfault_->structure);
    if (spec.persistenceHook == PersistenceHook::StorageReadOverlay) {
        storageFor(pfault_->structure).setStuckEnabled(active);
        return;
    }
    // CycleReassert: force the faulty control bits for the cycle about
    // to step.  When inactive (intermittent off-phase) nothing is
    // asserted and the last forced value simply persists in the context
    // fields — register semantics, matching the retention behavior of
    // the storage overlay's raw words.
    if (!active)
        return;
    const BitMutation mut =
        pfault_->value ? BitMutation::Force1 : BitMutation::Force0;
    for (unsigned k = 0; (pfault_->mask >> k) != 0; ++k) {
        if ((pfault_->mask >> k) & 1)
            mutateBit(pfault_->structure, pfault_->firstBit + k, mut);
    }
}

std::optional<TrapKind>
SmCore::flushL1d(RunContext& ctx, Cycle now)
{
    if (!l1d_)
        return std::nullopt;
    return l1d_->flushDirty(ctx.l2, *ctx.memory, ctx.observer, now);
}

void
SmCore::mutateBit(TargetStructure structure, BitIndex bit, BitMutation mut)
{
    // The three leaf cell types, under flip/force-0/force-1.
    const auto mut_u32 = [mut](std::uint32_t& v, unsigned b) {
        const std::uint32_t m = std::uint32_t{1} << b;
        if (mut == BitMutation::Flip)
            v ^= m;
        else if (mut == BitMutation::Force0)
            v &= ~m;
        else
            v |= m;
    };
    const auto mut_mask = [mut](LaneMask& v, unsigned b) {
        const LaneMask m = LaneMask{1} << b;
        if (mut == BitMutation::Flip)
            v ^= m;
        else if (mut == BitMutation::Force0)
            v &= ~m;
        else
            v |= m;
    };

    switch (structure) {
      case TargetStructure::VectorRegisterFile:
      case TargetStructure::ScalarRegisterFile:
      case TargetStructure::SharedMemory:
        // Word storage persists via the read overlay, never by forcing
        // the raw words (that would destroy the retained value an
        // intermittent fault must recover).
        GPR_ASSERT(mut == BitMutation::Flip,
                   "word-storage persistence uses the read overlay");
        storageFor(structure).flipBitAt(bit);
        return;

      case TargetStructure::PredicateFile: {
        const std::uint64_t per_warp = predBitsPerWarp(config_);
        const auto slot = static_cast<std::size_t>(bit / per_warp);
        const std::uint64_t rem = bit % per_warp;
        GPR_ASSERT(slot < warps_.size(),
                   "predicate-file fault bit out of range");
        const auto preg = static_cast<unsigned>(rem / config_.warpWidth);
        const auto lane = static_cast<unsigned>(rem % config_.warpWidth);
        // A flip in an unused warp slot is dead state: dispatch fully
        // reinitialises the context before reuse, and unused slots are
        // (deliberately) outside the state fingerprint.
        mut_mask(warps_[slot].preds[preg], lane);
        return;
      }

      case TargetStructure::L1DataCache:
        GPR_ASSERT(l1d_, "no L1 data cache on this configuration");
        if (mut == BitMutation::Flip)
            l1d_->flipBit(bit);
        else
            l1d_->forceBit(bit, mut == BitMutation::Force1);
        return;

      case TargetStructure::L1InstructionCache:
        GPR_ASSERT(l1i_, "no L1 instruction cache on this configuration");
        if (mut == BitMutation::Flip)
            l1i_->flipBit(bit);
        else
            l1i_->forceBit(bit, mut == BitMutation::Force1);
        return;

      case TargetStructure::L2Cache:
        panic("chip-scoped L2 faults are applied by Gpu, not an SM");

      case TargetStructure::SimtStack: {
        const std::uint64_t per_warp = simtBitsPerWarp(config_);
        const auto slot = static_cast<std::size_t>(bit / per_warp);
        std::uint64_t rem = bit % per_warp;
        GPR_ASSERT(slot < warps_.size(),
                   "SIMT-stack fault bit out of range");
        WarpContext& w = warps_[slot];
        if (rem < 32) {
            // The pc selects the instruction whose registers gate issue.
            mut_u32(w.pc, static_cast<unsigned>(rem));
            invalidateIssue();
            return;
        }
        rem -= 32;
        if (rem < config_.warpWidth) {
            mut_mask(w.activeMask, static_cast<unsigned>(rem));
            return;
        }
        rem -= config_.warpWidth;
        if (rem < config_.warpWidth) {
            mut_mask(w.exitedMask, static_cast<unsigned>(rem));
            return;
        }
        rem -= config_.warpWidth;
        const std::uint64_t entry_bits = simtEntryBits(config_);
        const auto entry = static_cast<std::size_t>(rem / entry_bits);
        std::uint64_t ebit = rem % entry_bits;
        if (entry >= w.stack.size())
            return; // empty hardware cell: contents are dead
        ReconvEntry& e = w.stack[entry];
        if (ebit == 0) {
            // The kind bit: SyncToken = 0, PendingPath = 1.
            if (mut == BitMutation::Flip) {
                e.kind = e.kind == ReconvEntry::Kind::SyncToken
                             ? ReconvEntry::Kind::PendingPath
                             : ReconvEntry::Kind::SyncToken;
            } else {
                e.kind = mut == BitMutation::Force1
                             ? ReconvEntry::Kind::PendingPath
                             : ReconvEntry::Kind::SyncToken;
            }
            return;
        }
        ebit -= 1;
        if (ebit < 32) {
            mut_u32(e.pc, static_cast<unsigned>(ebit));
            return;
        }
        mut_mask(e.mask, static_cast<unsigned>(ebit - 32));
        return;
      }
    }
    panic("bad structure");
}

std::uint32_t
SmCore::warpSlotOf(const WarpContext& w) const
{
    return static_cast<std::uint32_t>(&w - warps_.data());
}

std::uint32_t
SmCore::predUnit(const WarpContext& w, unsigned preg) const
{
    return warpSlotOf(w) * kNumPredRegs + preg;
}

std::uint32_t
SmCore::simtUnit(const WarpContext& w, unsigned unit) const
{
    return warpSlotOf(w) * kSimtUnitsPerWarp + unit;
}

SmCore::Snapshot
SmCore::snapshot() const
{
    return Snapshot{vrf_, srf_, lds_, l1d_, l1i_, captureControl()};
}

void
SmCore::restore(const Snapshot& s)
{
    GPR_ASSERT(s.vrf.size() == vrf_.size() &&
                   s.lds.size() == lds_.size() &&
                   s.srf.has_value() == srf_.has_value() &&
                   s.l1d.has_value() == l1d_.has_value() &&
                   s.l1i.has_value() == l1i_.has_value(),
               "checkpoint shape does not match this SM's configuration");
    vrf_ = s.vrf;
    srf_ = s.srf;
    lds_ = s.lds;
    l1d_ = s.l1d;
    l1i_ = s.l1i;
    restoreControl(s.control);
}

SmCore::ControlState
SmCore::captureControl() const
{
    return ControlState{blocks_,
                        warps_,
                        warp_slot_used_,
                        warp_age_,
                        resident_blocks_,
                        resident_warps_,
                        dispatch_seq_,
                        rr_cursor_,
                        gto_last_};
}

void
SmCore::restoreControl(const ControlState& c)
{
    GPR_ASSERT(c.blocks.size() == blocks_.size() &&
                   c.warps.size() == warps_.size(),
               "control state does not match this SM's configuration");
    pfault_.reset(); // checkpoints are recorded on fault-free runs
    blocks_ = c.blocks;
    warps_ = c.warps;
    warp_slot_used_ = c.warpSlotUsed;
    warp_age_ = c.warpAge;
    resident_blocks_ = c.residentBlocks;
    resident_warps_ = c.residentWarps;
    dispatch_seq_ = c.dispatchSeq;
    rr_cursor_ = c.rrCursor;
    gto_last_ = c.gtoLast;
    invalidateIssue();
}

void
SmCore::markStoragesClean()
{
    vrf_.markCleanForRestore();
    if (srf_)
        srf_->markCleanForRestore();
    lds_.markCleanForRestore();
    if (l1d_)
        l1d_->markCleanForRestore();
    if (l1i_)
        l1i_->markCleanForRestore();
}

void
SmCore::revertStorages(const Snapshot& baseline)
{
    GPR_ASSERT(baseline.srf.has_value() == srf_.has_value() &&
                   baseline.l1d.has_value() == l1d_.has_value() &&
                   baseline.l1i.has_value() == l1i_.has_value(),
               "baseline does not match this SM's configuration");
    vrf_.revertTo(baseline.vrf);
    if (srf_)
        srf_->revertTo(*baseline.srf);
    lds_.revertTo(baseline.lds);
    if (l1d_)
        l1d_->revertTo(*baseline.l1d);
    if (l1i_)
        l1i_->revertTo(*baseline.l1i);
}

void
SmCore::captureStorageDelta(const Snapshot& baseline,
                            SmStorageDelta& out) const
{
    GPR_ASSERT(baseline.srf.has_value() == srf_.has_value() &&
                   baseline.l1d.has_value() == l1d_.has_value() &&
                   baseline.l1i.has_value() == l1i_.has_value(),
               "baseline does not match this SM's configuration");
    vrf_.captureDelta(baseline.vrf, out.vrf);
    if (srf_)
        srf_->captureDelta(*baseline.srf, out.srf);
    lds_.captureDelta(baseline.lds, out.lds);
    if (l1d_)
        l1d_->captureDelta(*baseline.l1d, out.l1d);
    if (l1i_)
        l1i_->captureDelta(*baseline.l1i, out.l1i);
}

void
SmCore::applyStorageDelta(const SmStorageDelta& delta)
{
    vrf_.applyDelta(delta.vrf);
    if (srf_)
        srf_->applyDelta(delta.srf);
    lds_.applyDelta(delta.lds);
    if (l1d_)
        l1d_->applyDelta(delta.l1d);
    if (l1i_)
        l1i_->applyDelta(delta.l1i);
}

void
SmCore::hashInto(StateHash& h) const
{
    vrf_.hashInto(h);
    if (srf_)
        srf_->hashInto(h);
    lds_.hashInto(h);
    if (l1d_)
        l1d_->hashInto(h);
    if (l1i_)
        l1i_->hashInto(h);

    for (const BlockContext& b : blocks_) {
        h.mix(b.active);
        if (!b.active)
            continue; // stale slots are reinitialised on dispatch
        h.mix(b.blockId);
        h.mix(b.bx);
        h.mix(b.by);
        h.mix(b.vrfBase);
        h.mix(b.srfBase);
        h.mix(b.ldsBase);
        h.mix(b.warpSlots.size());
        for (std::uint32_t slot : b.warpSlots)
            h.mix(slot);
        h.mix(b.liveWarps);
        h.mix(b.barrierArrived);
    }
    for (std::size_t i = 0; i < warps_.size(); ++i) {
        h.mix(static_cast<std::uint64_t>(warp_slot_used_[i]));
        if (!warp_slot_used_[i])
            continue; // ditto
        h.mix(warp_age_[i]);
        warps_[i].hashInto(h);
    }
    h.mix(resident_blocks_);
    h.mix(resident_warps_);
    h.mix(dispatch_seq_);
    h.mix(rr_cursor_);
    h.mix(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(gto_last_)));
}

bool
SmCore::tryDispatchBlock(RunContext& ctx, std::uint32_t block_id, Cycle now)
{
    // Find a free block slot.
    std::int32_t slot = -1;
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
        if (!blocks_[i].active) {
            slot = static_cast<std::int32_t>(i);
            break;
        }
    }
    if (slot < 0)
        return false;

    const std::uint32_t warps_needed = ctx.warpsPerBlock;
    if (resident_warps_ + warps_needed > config_.maxWarpsPerSm)
        return false;

    // Allocate storage: vector RF, scalar RF, LDS.
    const auto vrf_base = ctx.vrfWordsPerBlock
                              ? vrf_.allocate(ctx.vrfWordsPerBlock)
                              : std::optional<std::uint32_t>(0u);
    if (!vrf_base)
        return false;

    std::optional<std::uint32_t> srf_base = 0u;
    if (ctx.srfWordsPerBlock) {
        GPR_ASSERT(srf_, "scalar registers demanded on a scalar-less GPU");
        srf_base = srf_->allocate(ctx.srfWordsPerBlock);
        if (!srf_base) {
            if (ctx.vrfWordsPerBlock)
                vrf_.release(*vrf_base, ctx.vrfWordsPerBlock);
            return false;
        }
    }

    std::optional<std::uint32_t> lds_base = 0u;
    if (ctx.ldsWordsPerBlock) {
        lds_base = lds_.allocate(ctx.ldsWordsPerBlock);
        if (!lds_base) {
            if (ctx.vrfWordsPerBlock)
                vrf_.release(*vrf_base, ctx.vrfWordsPerBlock);
            if (ctx.srfWordsPerBlock)
                srf_->release(*srf_base, ctx.srfWordsPerBlock);
            return false;
        }
    }

    BlockContext& block = blocks_[static_cast<std::size_t>(slot)];
    block.active = true;
    block.blockId = block_id;
    block.bx = block_id % ctx.launch->gridX;
    block.by = block_id / ctx.launch->gridX;
    block.vrfBase = *vrf_base;
    block.srfBase = *srf_base;
    block.ldsBase = *lds_base;
    block.warpSlots.clear();
    block.liveWarps = 0;
    block.barrierArrived = 0;

    if (ctx.observer) {
        if (ctx.vrfWordsPerBlock) {
            ctx.observer->onAlloc(TargetStructure::VectorRegisterFile, id_,
                                  block.vrfBase, ctx.vrfWordsPerBlock, now);
        }
        if (ctx.srfWordsPerBlock) {
            ctx.observer->onAlloc(TargetStructure::ScalarRegisterFile, id_,
                                  block.srfBase, ctx.srfWordsPerBlock, now);
        }
        if (ctx.ldsWordsPerBlock) {
            ctx.observer->onAlloc(TargetStructure::SharedMemory, id_,
                                  block.ldsBase, ctx.ldsWordsPerBlock, now);
        }
    }

    // Populate warps.
    const std::uint32_t threads = ctx.launch->threadsPerBlock();
    for (std::uint32_t w = 0; w < warps_needed; ++w) {
        std::int32_t wslot = -1;
        for (std::uint32_t i = 0; i < warp_slot_used_.size(); ++i) {
            if (!warp_slot_used_[i]) {
                wslot = static_cast<std::int32_t>(i);
                break;
            }
        }
        GPR_ASSERT(wslot >= 0, "warp slot accounting is broken");
        warp_slot_used_[static_cast<std::size_t>(wslot)] = true;
        warp_age_[static_cast<std::size_t>(wslot)] = dispatch_seq_++;

        WarpContext& warp = warps_[static_cast<std::size_t>(wslot)];
        warp = WarpContext{};
        warp.blockSlot = static_cast<std::uint32_t>(slot);
        warp.warpInBlock = w;
        const std::uint32_t first_thread = w * config_.warpWidth;
        warp.laneCount = std::min(config_.warpWidth,
                                  threads - std::min(threads, first_thread));
        GPR_ASSERT(warp.laneCount > 0, "empty warp dispatched");
        warp.activeMask = fullMask(warp.laneCount);
        warp.status = WarpStatus::Ready;
        warp.readyCycle = now + 1;
        warp.vregReady.assign(ctx.program->numVRegs(), 0);
        warp.sregReady.assign(ctx.program->numSRegs(), 0);
        warp.stack.reserve(8);

        if (ctx.observer) {
            // Dispatch initialises the warp's control state (preds to
            // zero, PC/masks to their entry values) — a fresh lifetime
            // epoch for the control-bit structures.
            const auto uslot = static_cast<std::uint32_t>(wslot);
            ctx.observer->onAlloc(TargetStructure::PredicateFile, id_,
                                  uslot * kNumPredRegs, kNumPredRegs, now);
            ctx.observer->onAlloc(TargetStructure::SimtStack, id_,
                                  uslot * kSimtUnitsPerWarp,
                                  kSimtUnitsPerWarp, now);
        }

        block.warpSlots.push_back(static_cast<std::uint32_t>(wslot));
        ++block.liveWarps;
        refreshIssueCycle(*ctx.program, static_cast<std::uint32_t>(wslot));
    }

    resident_warps_ += warps_needed;
    ++resident_blocks_;
    wake_cycle_ = 0;
    return true;
}

std::uint32_t
SmCore::vrfIndex(const WarpContext& w, RegIndex r, unsigned lane) const
{
    const BlockContext& block = blocks_[w.blockSlot];
    return block.vrfBase +
           (w.warpInBlock * static_cast<std::uint32_t>(
                                w.vregReady.size()) + r) *
               config_.warpWidth +
           lane;
}

std::uint32_t
SmCore::srfIndex(const WarpContext& w, RegIndex r) const
{
    const BlockContext& block = blocks_[w.blockSlot];
    return block.srfBase +
           w.warpInBlock * static_cast<std::uint32_t>(w.sregReady.size()) +
           r;
}

Word
SmCore::readSpecial(const RunContext& ctx, const WarpContext& w,
                    SpecialReg sr, unsigned lane) const
{
    const BlockContext& block = blocks_[w.blockSlot];
    const LaunchConfig& launch = *ctx.launch;
    const std::uint32_t linear = w.warpInBlock * config_.warpWidth + lane;

    switch (sr) {
      case SpecialReg::TidX:
        return linear % launch.blockX;
      case SpecialReg::TidY:
        return linear / launch.blockX;
      case SpecialReg::CtaIdX:
        return block.bx;
      case SpecialReg::CtaIdY:
        return block.by;
      case SpecialReg::NTidX:
        return launch.blockX;
      case SpecialReg::NTidY:
        return launch.blockY;
      case SpecialReg::NCtaIdX:
        return launch.gridX;
      case SpecialReg::NCtaIdY:
        return launch.gridY;
      case SpecialReg::Lane:
        return lane;
      case SpecialReg::WarpId:
        return w.warpInBlock;
      default:
        panic("bad special register");
    }
}

Word
SmCore::readUniformOperand(RunContext& ctx, const WarpContext& w,
                           const Operand& op, Cycle now)
{
    switch (op.kind) {
      case OperandKind::Imm:
        return op.imm;
      case OperandKind::SReg: {
        const std::uint32_t idx = srfIndex(w, op.index);
        const Word value = srf_->read(idx);
        if (ctx.observer) {
            ctx.observer->onRead(TargetStructure::ScalarRegisterFile, id_,
                                 idx, value, now);
        }
        return value;
      }
      default:
        panic("operand is not uniform: ", op.toString());
    }
}

Word
SmCore::readLaneOperand(RunContext& ctx, const WarpContext& w,
                        const Operand& op, unsigned lane, Cycle now,
                        Word uniform_value)
{
    if (op.kind != OperandKind::VReg)
        return uniform_value;
    const std::uint32_t idx = vrfIndex(w, op.index, lane);
    const Word value = vrf_.read(idx);
    if (ctx.observer) {
        ctx.observer->onRead(TargetStructure::VectorRegisterFile, id_, idx,
                             value, now);
    }
    return value;
}

void
SmCore::writeVReg(RunContext& ctx, const WarpContext& w, RegIndex r,
                  unsigned lane, Word value, Cycle now)
{
    const std::uint32_t idx = vrfIndex(w, r, lane);
    vrf_.write(idx, value);
    if (ctx.observer) {
        ctx.observer->onWrite(TargetStructure::VectorRegisterFile, id_, idx,
                              now);
    }
}

Cycle
SmCore::issueCycle(const Program& prog, std::uint32_t slot) const
{
    const WarpContext& w = warps_[slot];
    if (!warp_slot_used_[slot] || w.status != WarpStatus::Ready)
        return kNeverIssues;
    // A fault-corrupted PC issues as soon as the issue slot frees, so
    // executeInstruction can raise the InvalidControlFlow trap.
    if (w.pc >= prog.size())
        return w.readyCycle;

    Cycle blocked = w.readyCycle;
    const Instruction& inst = prog.inst(w.pc);
    const OpTraits& t = inst.traits();

    auto track_reg = [&](const Operand& op) {
        if (op.kind == OperandKind::VReg)
            blocked = std::max(blocked, w.vregReady[op.index]);
        else if (op.kind == OperandKind::SReg)
            blocked = std::max(blocked, w.sregReady[op.index]);
    };

    if (inst.guard != kNoPred) {
        blocked = std::max(
            blocked, w.predReady[static_cast<unsigned>(inst.guard)]);
    }
    for (unsigned s = 0; s < t.numSrcs; ++s)
        track_reg(inst.src[s]);
    if (t.writesDst)
        track_reg(inst.dst);
    if (t.writesPred)
        blocked = std::max(blocked, w.predReady[inst.predDst]);
    if (t.readsPredSrc)
        blocked = std::max(blocked, w.predReady[inst.predSrc]);
    return blocked;
}

void
SmCore::pushReconv(RunContext& ctx, WarpContext& w,
                   const ReconvEntry& entry, Cycle now)
{
    // Only the first kSimtStackDepth entries are modelled hardware
    // cells; deeper pushes still simulate but have no lifetime events.
    if (ctx.observer && w.stack.size() < kSimtStackDepth) {
        ctx.observer->onWrite(
            TargetStructure::SimtStack, id_,
            simtUnit(w, 1 + static_cast<unsigned>(w.stack.size())), now);
    }
    w.stack.push_back(entry);
}

void
SmCore::popToNextPath(RunContext& ctx, WarpContext& w, Cycle now,
                      bool& underflow)
{
    underflow = false;
    while (!w.stack.empty()) {
        const auto depth = static_cast<unsigned>(w.stack.size() - 1);
        const ReconvEntry top = w.stack.back();
        w.stack.pop_back();
        if (ctx.observer && depth < kSimtStackDepth) {
            ctx.observer->onRead(TargetStructure::SimtStack, id_,
                                 simtUnit(w, 1 + depth), 0, now);
        }
        const LaneMask live = top.mask & ~w.exitedMask;
        if (live == 0)
            continue;
        w.pc = top.pc;
        w.activeMask = live;
        return;
    }
    underflow = true;
}

void
SmCore::finishWarp(RunContext& ctx, WarpContext& w, Cycle now)
{
    w.status = WarpStatus::Finished;
    w.activeMask = 0;
    BlockContext& block = blocks_[w.blockSlot];
    GPR_ASSERT(block.liveWarps > 0, "block live-warp accounting broken");
    --block.liveWarps;

    if (block.liveWarps == 0) {
        completeBlock(ctx, block, now);
    } else {
        // An exited warp implicitly satisfies any outstanding barrier.
        releaseBarrierIfReady(ctx, block, now);
    }
}

void
SmCore::releaseBarrierIfReady(RunContext& ctx, BlockContext& block,
                              Cycle now)
{
    if (block.barrierArrived == 0)
        return;
    // Release when every live warp of the block is parked at the barrier.
    std::uint32_t waiting = 0;
    for (std::uint32_t slot : block.warpSlots) {
        if (warps_[slot].status == WarpStatus::AtBarrier)
            ++waiting;
    }
    if (waiting < block.liveWarps)
        return;

    for (std::uint32_t slot : block.warpSlots) {
        WarpContext& w = warps_[slot];
        if (w.status == WarpStatus::AtBarrier) {
            w.status = WarpStatus::Ready;
            w.readyCycle = now + 1;
            refreshIssueCycle(*ctx.program, slot);
        }
    }
    block.barrierArrived = 0;
    if (ctx.stats)
        ++ctx.stats->barriersExecuted;
}

void
SmCore::completeBlock(RunContext& ctx, BlockContext& block, Cycle now)
{
    if (ctx.vrfWordsPerBlock) {
        vrf_.release(block.vrfBase, ctx.vrfWordsPerBlock);
        if (ctx.observer) {
            ctx.observer->onFree(TargetStructure::VectorRegisterFile, id_,
                                 block.vrfBase, ctx.vrfWordsPerBlock, now);
        }
    }
    if (ctx.srfWordsPerBlock) {
        srf_->release(block.srfBase, ctx.srfWordsPerBlock);
        if (ctx.observer) {
            ctx.observer->onFree(TargetStructure::ScalarRegisterFile, id_,
                                 block.srfBase, ctx.srfWordsPerBlock, now);
        }
    }
    if (ctx.ldsWordsPerBlock) {
        lds_.release(block.ldsBase, ctx.ldsWordsPerBlock);
        if (ctx.observer) {
            ctx.observer->onFree(TargetStructure::SharedMemory, id_,
                                 block.ldsBase, ctx.ldsWordsPerBlock, now);
        }
    }

    for (std::uint32_t slot : block.warpSlots) {
        warp_slot_used_[slot] = false;
        if (ctx.observer) {
            ctx.observer->onFree(TargetStructure::PredicateFile, id_,
                                 slot * kNumPredRegs, kNumPredRegs, now);
            ctx.observer->onFree(TargetStructure::SimtStack, id_,
                                 slot * kSimtUnitsPerWarp,
                                 kSimtUnitsPerWarp, now);
        }
    }

    GPR_ASSERT(resident_warps_ >=
                   static_cast<std::uint32_t>(block.warpSlots.size()),
               "warp residency accounting broken");
    resident_warps_ -=
        static_cast<std::uint32_t>(block.warpSlots.size());
    GPR_ASSERT(resident_blocks_ > 0, "block residency accounting broken");
    --resident_blocks_;
    block.active = false;
    if (ctx.stats)
        ++ctx.stats->blocksCompleted;
}

std::optional<TrapKind>
SmCore::executeInstruction(RunContext& ctx, WarpContext& w, Cycle now)
{
    // A PC outside the program (only reachable through injected control
    // faults) is a fetch from nonexistent instruction memory.
    if (w.pc >= ctx.program->size())
        return TrapKind::InvalidControlFlow;

    // Fetch through the L1i: fault-free, the identity-mapped line
    // returns the PC itself; an L1i tag/data fault redirects the fetch
    // to a different instruction index (wrong-opcode execution) or past
    // the program (trap).  The scoreboard in issueCycle still consults
    // the raw w.pc — a deliberate modeling simplification: fetch
    // corruption changes what executes, not when it issues.
    std::uint32_t fetch_pc = w.pc;
    if (l1i_) {
        fetch_pc = l1i_->fetchInst(w.pc, ctx.observer, now);
        if (fetch_pc >= ctx.program->size())
            return TrapKind::InvalidControlFlow;
    }

    const Instruction& inst = ctx.program->inst(fetch_pc);
    const OpTraits& t = inst.traits();
    const LatencyModel& lat = config_.latency;

    if (ctx.observer) {
        // Issue consumes the warp's PC + masks and every instruction
        // updates them (the PC always advances): the PC/mask unit of
        // the SIMT-stack target is read and rewritten each issue.
        ctx.observer->onRead(TargetStructure::SimtStack, id_,
                             simtUnit(w, 0), 0, now);
        ctx.observer->onWrite(TargetStructure::SimtStack, id_,
                              simtUnit(w, 0), now);
        if (inst.guard != kNoPred) {
            ctx.observer->onRead(
                TargetStructure::PredicateFile, id_,
                predUnit(w, static_cast<unsigned>(inst.guard)), 0, now);
        }
    }

    if (ctx.stats) {
        ++ctx.stats->warpInstructions;
        ctx.stats->threadInstructions +=
            static_cast<std::uint64_t>(popcount(
                static_cast<Word>(w.activeMask & 0xffffffffu))) +
            popcount(static_cast<Word>(w.activeMask >> 32));
    }

    // Lanes this instruction affects (guard applied); BRA and EXIT use the
    // guard as the *condition* instead, handled in their cases.
    LaneMask exec = w.activeMask;
    if (inst.guard != kNoPred && inst.op != Opcode::Bra &&
        inst.op != Opcode::Exit) {
        const LaneMask p = w.preds[static_cast<unsigned>(inst.guard)];
        exec &= inst.guardNegate ? ~p : p;
    }

    // Consume the issue slot.
    w.readyCycle = now + config_.warpIssueInterval;

    auto for_each_lane = [&](LaneMask mask, auto&& fn) {
        for (unsigned lane = 0; lane < config_.warpWidth; ++lane) {
            if (mask & (LaneMask{1} << lane))
                fn(lane);
        }
    };

    auto category_latency = [&](OpCategory cat) -> Cycle {
        switch (cat) {
          case OpCategory::Misc:
            return lat.misc;
          case OpCategory::IntAlu:
            return lat.intAlu;
          case OpCategory::FloatAlu:
            return lat.floatAlu;
          case OpCategory::Sfu:
            return lat.sfu;
          case OpCategory::Compare:
            return lat.compare;
          default:
            return lat.misc;
        }
    };

    auto retire_dst = [&](Cycle ready) {
        if (inst.dst.kind == OperandKind::VReg)
            w.vregReady[inst.dst.index] = ready;
        else if (inst.dst.kind == OperandKind::SReg)
            w.sregReady[inst.dst.index] = ready;
    };

    switch (inst.op) {
      case Opcode::Nop:
        ++w.pc;
        return std::nullopt;

      case Opcode::S2r: {
        const SpecialReg sr = inst.src[0].sreg;
        if (inst.dst.kind == OperandKind::SReg) {
            // Uniform special only (verified): read via lane 0.
            const Word v = readSpecial(ctx, w, sr, 0);
            const std::uint32_t idx = srfIndex(w, inst.dst.index);
            srf_->write(idx, v);
            if (ctx.observer) {
                ctx.observer->onWrite(TargetStructure::ScalarRegisterFile,
                                      id_, idx, now);
            }
        } else {
            for_each_lane(exec, [&](unsigned lane) {
                writeVReg(ctx, w, inst.dst.index, lane,
                          readSpecial(ctx, w, sr, lane), now);
            });
        }
        retire_dst(now + lat.misc);
        ++w.pc;
        return std::nullopt;
      }

      case Opcode::LdParam: {
        const std::uint32_t pidx = inst.src[0].imm;
        GPR_ASSERT(pidx < ctx.launch->params.size(),
                   "kernel reads parameter ", pidx, " but only ",
                   ctx.launch->params.size(), " were provided");
        const Word v = ctx.launch->params[pidx];
        if (inst.dst.kind == OperandKind::SReg) {
            const std::uint32_t idx = srfIndex(w, inst.dst.index);
            srf_->write(idx, v);
            if (ctx.observer) {
                ctx.observer->onWrite(TargetStructure::ScalarRegisterFile,
                                      id_, idx, now);
            }
        } else {
            for_each_lane(exec, [&](unsigned lane) {
                writeVReg(ctx, w, inst.dst.index, lane, v, now);
            });
        }
        retire_dst(now + lat.misc);
        ++w.pc;
        return std::nullopt;
      }

      // --- Generic ALU / conversions / MOV / SELP ------------------------
      case Opcode::Mov:
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMul:
      case Opcode::IMad:
      case Opcode::IMin:
      case Opcode::IMax:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Not:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Shra:
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FFma:
      case Opcode::FMin:
      case Opcode::FMax:
      case Opcode::FRcp:
      case Opcode::FSqrt:
      case Opcode::FExp2:
      case Opcode::FAbs:
      case Opcode::FNeg:
      case Opcode::FDiv:
      case Opcode::F2i:
      case Opcode::I2f:
      case Opcode::Selp: {
        // Pre-read uniform sources once (immediates / scalar registers).
        std::array<Word, 3> uni{};
        for (unsigned s = 0; s < t.numSrcs; ++s) {
            if (inst.src[s].kind != OperandKind::VReg)
                uni[s] = readUniformOperand(ctx, w, inst.src[s], now);
        }

        if (inst.dst.kind == OperandKind::SReg) {
            // Scalar ALU: executes once per wavefront.
            Word v;
            if (inst.op == Opcode::Selp) {
                panic("SELP cannot target a scalar register");
            } else {
                v = evalAlu(inst.op, uni[0], uni[1], uni[2]);
            }
            const std::uint32_t idx = srfIndex(w, inst.dst.index);
            srf_->write(idx, v);
            if (ctx.observer) {
                ctx.observer->onWrite(TargetStructure::ScalarRegisterFile,
                                      id_, idx, now);
            }
        } else {
            if (inst.op == Opcode::Selp && ctx.observer) {
                ctx.observer->onRead(TargetStructure::PredicateFile, id_,
                                     predUnit(w, inst.predSrc), 0, now);
            }
            const LaneMask sel =
                inst.op == Opcode::Selp ? w.preds[inst.predSrc] : 0;
            for_each_lane(exec, [&](unsigned lane) {
                std::array<Word, 3> v = uni;
                for (unsigned s = 0; s < t.numSrcs; ++s) {
                    v[s] = readLaneOperand(ctx, w, inst.src[s], lane, now,
                                           v[s]);
                }
                Word out;
                if (inst.op == Opcode::Selp) {
                    out = (sel & (LaneMask{1} << lane)) ? v[0] : v[1];
                } else {
                    out = evalAlu(inst.op, v[0], v[1], v[2]);
                }
                writeVReg(ctx, w, inst.dst.index, lane, out, now);
            });
        }
        retire_dst(now + category_latency(t.category));
        ++w.pc;
        return std::nullopt;
      }

      case Opcode::ISetp:
      case Opcode::FSetp: {
        std::array<Word, 2> uni{};
        for (unsigned s = 0; s < 2; ++s) {
            if (inst.src[s].kind != OperandKind::VReg)
                uni[s] = readUniformOperand(ctx, w, inst.src[s], now);
        }
        if (ctx.observer) {
            // Guard-false lanes merge the old predicate value into the
            // result, so SETP both reads and writes its destination.
            ctx.observer->onRead(TargetStructure::PredicateFile, id_,
                                 predUnit(w, inst.predDst), 0, now);
        }
        LaneMask result = w.preds[inst.predDst] & ~exec;
        for_each_lane(exec, [&](unsigned lane) {
            const Word a =
                readLaneOperand(ctx, w, inst.src[0], lane, now, uni[0]);
            const Word b =
                readLaneOperand(ctx, w, inst.src[1], lane, now, uni[1]);
            const bool r = inst.op == Opcode::ISetp
                               ? evalCmpInt(inst.cmp, a, b)
                               : evalCmpFloat(inst.cmp, a, b);
            if (r)
                result |= LaneMask{1} << lane;
        });
        w.preds[inst.predDst] = result;
        w.predReady[inst.predDst] = now + lat.compare;
        if (ctx.observer) {
            ctx.observer->onWrite(TargetStructure::PredicateFile, id_,
                                  predUnit(w, inst.predDst), now);
        }
        ++w.pc;
        return std::nullopt;
      }

      // --- Control flow ---------------------------------------------------
      case Opcode::Ssy:
        pushReconv(ctx, w,
                   {ReconvEntry::Kind::SyncToken, inst.target,
                    w.activeMask},
                   now);
        ++w.pc;
        return std::nullopt;

      case Opcode::Bra: {
        LaneMask taken = w.activeMask;
        if (inst.guard != kNoPred) {
            const LaneMask p = w.preds[static_cast<unsigned>(inst.guard)];
            taken &= inst.guardNegate ? ~p : p;
        }
        if (taken == w.activeMask) {
            w.pc = inst.target; // uniformly taken
        } else if (taken == 0) {
            ++w.pc;             // uniformly not taken
        } else {
            // Divergence: defer the taken lanes, continue fall-through.
            if (ctx.stats)
                ++ctx.stats->divergenceEvents;
            pushReconv(ctx, w,
                       {ReconvEntry::Kind::PendingPath, inst.target,
                        taken},
                       now);
            w.activeMask &= ~taken;
            ++w.pc;
        }
        return std::nullopt;
      }

      case Opcode::Sync: {
        bool underflow = false;
        popToNextPath(ctx, w, now, underflow);
        if (underflow) {
            // Lanes are parked with nowhere to reconverge: corrupted
            // control state (only reachable through injected faults).
            return TrapKind::InvalidControlFlow;
        }
        return std::nullopt;
      }

      case Opcode::Exit: {
        LaneMask exiting = w.activeMask;
        if (inst.guard != kNoPred) {
            const LaneMask p = w.preds[static_cast<unsigned>(inst.guard)];
            exiting &= inst.guardNegate ? ~p : p;
        }
        w.exitedMask |= exiting;
        w.activeMask &= ~exiting;
        if (w.activeMask != 0) {
            ++w.pc; // guard-false lanes continue
            return std::nullopt;
        }
        bool underflow = false;
        popToNextPath(ctx, w, now, underflow);
        if (underflow)
            finishWarp(ctx, w, now);
        return std::nullopt;
      }

      case Opcode::Bar: {
        ++w.pc;
        w.status = WarpStatus::AtBarrier;
        BlockContext& block = blocks_[w.blockSlot];
        ++block.barrierArrived;
        releaseBarrierIfReady(ctx, block, now);
        return std::nullopt;
      }

      // --- Memory ----------------------------------------------------------
      case Opcode::Ldg:
      case Opcode::Stg:
      case Opcode::AtomgAdd: {
        const bool is_load = inst.op == Opcode::Ldg;
        const bool is_atomic = inst.op == Opcode::AtomgAdd;
        Word addr_uni = 0, val_uni = 0;
        if (inst.src[0].kind != OperandKind::VReg)
            addr_uni = readUniformOperand(ctx, w, inst.src[0], now);
        if (!is_load && inst.src[1].kind != OperandKind::VReg)
            val_uni = readUniformOperand(ctx, w, inst.src[1], now);

        // Gather addresses, bounds-check, count 128-byte segments.
        std::optional<TrapKind> trap;
        std::array<std::uint64_t, kMaxLanes> segments;
        unsigned num_segments = 0;
        std::uint32_t lane_ops = 0;

        for_each_lane(exec, [&](unsigned lane) {
            if (trap)
                return;
            const Word base =
                readLaneOperand(ctx, w, inst.src[0], lane, now, addr_uni);
            const Addr addr =
                (static_cast<Addr>(base) +
                 static_cast<Addr>(
                     static_cast<std::int64_t>(inst.memOffset))) &
                0xffffffffULL;
            if (!ctx.memory->inBounds(addr)) {
                trap = TrapKind::GlobalOutOfBounds;
                return;
            }
            if (addr & 3) {
                // A misaligned word address (computed or injected) must
                // surface as a DUE — silently aligning down would read
                // the wrong word and masquerade as SDC.
                trap = TrapKind::MisalignedAddress;
                return;
            }
            const std::uint64_t seg = addr >> 7;
            const auto segments_end = segments.begin() + num_segments;
            if (std::find(segments.begin(), segments_end, seg) ==
                segments_end) {
                segments[num_segments++] = seg;
            }

            // Data path: through the L1d/L2 hierarchy when modeled
            // (functional only — the segment/pipe timing above is
            // unchanged by hits or misses), else straight to memory.
            auto mem_read = [&](Word& out) -> bool {
                if (l1d_) {
                    const CacheModel::Access a = l1d_->read(
                        addr, ctx.l2, *ctx.memory, ctx.observer, now);
                    if (a.trap) {
                        trap = a.trap;
                        return false;
                    }
                    out = a.value;
                } else {
                    out = ctx.memory->readWord(addr);
                }
                return true;
            };
            auto mem_write = [&](Word v) {
                if (l1d_) {
                    trap = l1d_->write(addr, v, ctx.l2, *ctx.memory,
                                       ctx.observer, now);
                } else {
                    ctx.memory->writeWord(addr, v);
                }
            };

            if (is_load) {
                Word loaded = 0;
                if (!mem_read(loaded))
                    return;
                writeVReg(ctx, w, inst.dst.index, lane, loaded, now);
            } else {
                const Word v = readLaneOperand(ctx, w, inst.src[1], lane,
                                               now, val_uni);
                if (is_atomic) {
                    // Atomics execute at the chip's shared point of
                    // coherence (the L2 when modeled): a private-L1
                    // read-modify-write would lose updates between SMs.
                    // The local line, if resident, is patched so later
                    // loads from this SM observe the new value.
                    Word old = 0;
                    if (ctx.l2) {
                        const CacheModel::Access a = ctx.l2->read(
                            addr, nullptr, *ctx.memory, ctx.observer, now);
                        if (a.trap) {
                            trap = a.trap;
                            return;
                        }
                        old = a.value;
                        trap = ctx.l2->write(addr, old + v, nullptr,
                                             *ctx.memory, ctx.observer,
                                             now);
                    } else {
                        old = ctx.memory->readWord(addr);
                        ctx.memory->writeWord(addr, old + v);
                    }
                    if (l1d_)
                        l1d_->updateIfPresent(addr, old + v);
                } else {
                    mem_write(v);
                }
                if (trap)
                    return;
            }
            ++lane_ops;
        });
        if (trap)
            return trap;

        // Timing: the chip-wide pipe serialises transactions.
        const std::uint64_t txns = is_atomic ? lane_ops : num_segments;
        if (txns > 0) {
            const Cycle start = std::max(now, ctx.memPipe.nextFree);
            ctx.memPipe.nextFree =
                start + txns * config_.memTransactionCycles;
            if (is_load)
                retire_dst(ctx.memPipe.nextFree + lat.global);
            if (ctx.stats) {
                ctx.stats->globalTransactions += txns;
                if (is_load)
                    ++ctx.stats->globalLoads;
                else
                    ++ctx.stats->globalStores;
            }
        }
        ++w.pc;
        return std::nullopt;
      }

      case Opcode::Lds:
      case Opcode::Sts:
      case Opcode::AtomsAdd: {
        const bool is_load = inst.op == Opcode::Lds;
        const bool is_atomic = inst.op == Opcode::AtomsAdd;
        const BlockContext& block = blocks_[w.blockSlot];

        Word addr_uni = 0, val_uni = 0;
        if (inst.src[0].kind != OperandKind::VReg)
            addr_uni = readUniformOperand(ctx, w, inst.src[0], now);
        if (!is_load && inst.src[1].kind != OperandKind::VReg)
            val_uni = readUniformOperand(ctx, w, inst.src[1], now);

        std::optional<TrapKind> trap;
        // Bank-conflict model: count accesses per bank; the replay factor
        // is the worst bank's distinct-word count.
        std::array<std::uint32_t, kMaxLanes> bank_words;
        unsigned num_words = 0;
        std::uint32_t lane_ops = 0;

        for_each_lane(exec, [&](unsigned lane) {
            if (trap)
                return;
            const Word base =
                readLaneOperand(ctx, w, inst.src[0], lane, now, addr_uni);
            const Word byte_addr =
                base + static_cast<Word>(inst.memOffset);
            const std::uint32_t word = byte_addr >> 2;
            if (word >= ctx.ldsWordsPerBlock) {
                trap = TrapKind::SharedOutOfBounds;
                return;
            }
            const std::uint32_t idx = block.ldsBase + word;
            const auto words_end = bank_words.begin() + num_words;
            if (std::find(bank_words.begin(), words_end, word) ==
                words_end) {
                bank_words[num_words++] = word;
            }

            if (is_load) {
                const Word loaded = lds_.read(idx);
                if (ctx.observer) {
                    ctx.observer->onRead(TargetStructure::SharedMemory,
                                         id_, idx, loaded, now);
                }
                writeVReg(ctx, w, inst.dst.index, lane, loaded, now);
            } else {
                const Word v = readLaneOperand(ctx, w, inst.src[1], lane,
                                               now, val_uni);
                if (is_atomic) {
                    const Word old = lds_.read(idx);
                    if (ctx.observer) {
                        ctx.observer->onRead(TargetStructure::SharedMemory,
                                             id_, idx, old, now);
                    }
                    lds_.write(idx, old + v);
                } else {
                    lds_.write(idx, v);
                }
                if (ctx.observer) {
                    ctx.observer->onWrite(TargetStructure::SharedMemory,
                                          id_, idx, now);
                }
            }
            ++lane_ops;
        });
        if (trap)
            return trap;

        // Replay factor: distinct words per bank (1 with no access).
        std::array<std::uint32_t, kMaxLanes> per_bank{};
        for (unsigned i = 0; i < num_words; ++i)
            ++per_bank[bank_words[i] % config_.smemBanks];
        const std::uint32_t replay = std::max(
            1u, *std::max_element(per_bank.begin(),
                                  per_bank.begin() + config_.smemBanks));
        const Cycle extra =
            is_atomic ? (lane_ops > 0 ? lane_ops - 1 : 0) : (replay - 1);
        if (is_load)
            retire_dst(now + lat.shared + extra);
        if (ctx.stats) {
            ++ctx.stats->sharedAccesses;
            ctx.stats->sharedBankConflictReplays += replay - 1;
        }
        ++w.pc;
        return std::nullopt;
      }

      default:
        panic("unhandled opcode ", opMnemonic(inst.op));
    }
}

std::int32_t
SmCore::pickWarpRoundRobin(Cycle now, Cycle& earliest)
{
    const auto n = static_cast<std::uint32_t>(issue_cycle_.size());
    for (std::uint32_t probe = 0; probe < n; ++probe) {
        const std::uint32_t slot = (rr_cursor_ + 1 + probe) % n;
        const Cycle at = issue_cycle_[slot];
        if (at <= now) {
            rr_cursor_ = slot;
            return static_cast<std::int32_t>(slot);
        }
        earliest = std::min(earliest, at);
    }
    return -1;
}

std::int32_t
SmCore::pickWarpGto(Cycle now, Cycle& earliest)
{
    // Greedy: stick with the last issued warp while it can issue.
    if (gto_last_ >= 0 &&
        issue_cycle_[static_cast<std::uint32_t>(gto_last_)] <= now)
        return gto_last_;
    // Then oldest (smallest dispatch sequence number).
    std::int32_t best = -1;
    std::uint64_t best_age = ~std::uint64_t{0};
    for (std::uint32_t slot = 0; slot < issue_cycle_.size(); ++slot) {
        const Cycle at = issue_cycle_[slot];
        if (at > now) {
            earliest = std::min(earliest, at);
        } else if (warp_age_[slot] < best_age) {
            best_age = warp_age_[slot];
            best = static_cast<std::int32_t>(slot);
        }
    }
    if (best >= 0)
        gto_last_ = best;
    return best;
}

std::optional<TrapKind>
SmCore::stepCycle(RunContext& ctx, Cycle now, bool& issued_any,
                  Cycle& next_event)
{
    if (resident_blocks_ == 0)
        return std::nullopt;
    if (issue_stale_) {
        for (std::uint32_t slot = 0; slot < warps_.size(); ++slot)
            refreshIssueCycle(*ctx.program, slot);
        issue_stale_ = false;
    }
    if (now < wake_cycle_) {
        next_event = std::min(next_event, wake_cycle_);
        return std::nullopt;
    }

    for (std::uint32_t slot_issue = 0; slot_issue < config_.issueWidth;
         ++slot_issue) {
        Cycle earliest = kNeverIssues;
        const std::int32_t pick =
            config_.scheduler == SchedulerKind::GreedyThenOldest
                ? pickWarpGto(now, earliest)
                : pickWarpRoundRobin(now, earliest);
        if (pick < 0) {
            // Every warp was probed: sleep until the first can issue.
            wake_cycle_ = earliest;
            next_event = std::min(next_event, earliest);
            break;
        }
        const auto slot = static_cast<std::uint32_t>(pick);
        const auto trap = executeInstruction(ctx, warps_[slot], now);
        if (trap)
            return trap;
        refreshIssueCycle(*ctx.program, slot);
        issued_any = true;
    }
    return std::nullopt;
}

} // namespace gpr
