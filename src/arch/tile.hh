/**
 * @file
 * One Synchroscalar processor tile.
 *
 * The tile is a simple single-issue Blackfin-style datapath: R0-R7,
 * P0-P5, two 40-bit accumulators, a CC flag, and 32 KB of local data
 * SRAM. Idle tiles are supply-gated and hold no live state (paper
 * Sections 2.2 and 4.4), so a tile owns no SRAM until it is first
 * written or can first execute; until then it reads as zeros. It
 * has no fetch/decode of its own — the column's SIMD
 * controller broadcasts decoded instructions (paper Section 2.2) and
 * the tile merely executes them against private state. R7 is the
 * designated communication register; `cwr`/`crd` move data through the
 * write/read buffers that the DOU services at bus cycles.
 */

#ifndef SYNC_ARCH_TILE_HH
#define SYNC_ARCH_TILE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "arch/comm_buffer.hh"
#include "arch/dou.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "isa/inst.hh"
#include "isa/uop.hh"

namespace synchro::arch
{

// The ISA's lane-operand range must track the bus width: a lane tag
// encodable in crd/cwr has to address a real lane and read buffer.
static_assert(isa::BusLaneCount == BusLanes,
              "isa::BusLaneCount must equal arch::BusLanes");

class Tile
{
  public:
    static constexpr unsigned MemBytes = 32 * 1024; //!< 32 KB SRAM

    /**
     * @param column column index on the chip
     * @param index  position within the column (0 = top)
     */
    Tile(unsigned column, unsigned index);

    unsigned column() const { return column_; }
    unsigned index() const { return index_; }

    /// @name Architectural state access (tests, loaders)
    /// @{
    uint32_t reg(unsigned r) const;
    void setReg(unsigned r, uint32_t v);
    uint32_t preg(unsigned p) const;
    void setPreg(unsigned p, uint32_t v);
    int64_t acc(unsigned a) const;
    void setAcc(unsigned a, int64_t v);
    bool cc() const { return cc_; }
    void setCc(bool c) { cc_ = c; }
    /// @}

    /// @name Local SRAM access
    /// @{
    /** Write @p len bytes at @p addr, allocating the SRAM first. */
    void writeMem(uint32_t addr, const void *data, uint32_t len);
    /** Read @p len bytes at @p addr; a tile with no SRAM reads 0s. */
    void readMem(uint32_t addr, void *data, uint32_t len) const;
    void writeMemWords(uint32_t addr, const std::vector<int32_t> &w);
    std::vector<int32_t> readMemWords(uint32_t addr, uint32_t n) const;
    void writeMemHalves(uint32_t addr, const std::vector<int16_t> &h);
    std::vector<int16_t> readMemHalves(uint32_t addr, uint32_t n) const;

    /** True once the tile owns its SRAM. */
    bool hasMem() const { return !mem_.empty(); }

    /**
     * Allocate the SRAM, zeroed, if the tile has none. Executing
     * tiles must own it: the chip calls this on every active tile
     * before it runs them, so the datapath never checks.
     */
    void allocMem();
    /// @}

    /**
     * Execute one pre-decoded non-control micro-op — the SIMD
     * controller's per-slot broadcast path. The caller has already
     * resolved hazards; executing `crd` with an empty read buffer or
     * `cwr` with a full write buffer is a panic here, as is a control
     * micro-op reaching a tile. The tile must own its SRAM
     * (allocMem()).
     */
    void issue(const isa::MicroOp &uop);

    /**
     * For tests and single-shot callers on a bare tile: allocMem(),
     * then issue() @p uop.
     */
    void execute(const isa::MicroOp &uop);

    /**
     * For tests and single-shot callers on a bare tile: decode (with
     * full operand validation) and execute one instruction.
     */
    void execute(const isa::Inst &inst);

    /** A specialized executor for one micro-op kind. */
    using OpFn = void (*)(Tile &, const isa::MicroOp &);

    /**
     * The specialized executor for @p kind, or nullptr for control
     * kinds that may never reach a tile. The returned function runs
     * the op's datapath semantics only — activity counters are the
     * caller's job (execute() charges them per op, executeBlock() in
     * bulk).
     */
    static OpFn opThunk(isa::UopKind kind);

    /**
     * Execute @p n micro-ops of a pre-analyzed straight-line block
     * (isa::DecodedProgram::run_len) in one call — the Compiled
     * scheduler backend's broadcast path. @p fns are the matching
     * opThunk() pointers; @p broadcast / @p mems / @p macs are the
     * per-tile counter charges for the whole range (controller nops
     * are issued but not broadcast, so broadcast <= n).
     */
    void executeBlock(const OpFn *fns, const isa::MicroOp *uops,
                      uint32_t n, uint64_t broadcast, uint64_t mems,
                      uint64_t macs);

    /**
     * Execute @p iters complete firings of an @p n micro-op loop
     * body in one call — executeBlock() for a whole zero-overhead
     * loop. The counter charges cover all iterations. One-op bodies
     * take executeLoopOp() instead.
     */
    void executeLoop(const OpFn *fns, const isa::MicroOp *uops,
                     uint32_t n, uint64_t iters, uint64_t broadcast,
                     uint64_t mems, uint64_t macs);

    /** A specialized executor running one op @p iters times. */
    using OpLoopFn = void (*)(Tile &, const isa::MicroOp &, uint64_t);

    /**
     * The iterated executor for @p kind (nullptr for control kinds).
     * For single-op loop bodies this beats @p iters opThunk() calls:
     * the op is inlined into the iteration loop, which the optimizer
     * then collapses or vectorizes. Semantics and panics are
     * identical to calling opThunk(kind) @p iters times.
     */
    static OpLoopFn opLoopThunk(isa::UopKind kind);

    /** executeLoop() for a one-op body via its opLoopThunk(). */
    void executeLoopOp(OpLoopFn fn, const isa::MicroOp &uop,
                       uint64_t iters, uint64_t broadcast,
                       uint64_t mems, uint64_t macs);

    /**
     * The single write buffer. Words may carry a lane tag (from a
     * tagged `cwr`); the DOU only drives a tagged word onto its
     * matching lane.
     */
    CommBuffer &writeBuffer() { return wbuf_; }
    const CommBuffer &writeBuffer() const { return wbuf_; }

    /**
     * Per-lane read buffers (paper Figure 2: the buffers align words
     * onto any 32-bit split of the 256-bit bus — one latch per
     * split). A DOU capture on lane L fills readBuffer(L); a tagged
     * `crd rd, L` drains exactly that buffer, so a join actor can
     * wait on each input edge independently. Untagged `crd` drains
     * the lowest-indexed valid buffer (legacy single-buffer code has
     * at most one valid at a time).
     */
    CommBuffer &readBuffer(unsigned lane = 0);
    const CommBuffer &readBuffer(unsigned lane = 0) const;

    /** True if any lane's read buffer holds a word. */
    bool anyReadValid() const;

    /** Reset architectural state (not SRAM contents). */
    void resetState();

    /**
     * Zero the whole SRAM (stream refeed between work items); a
     * tile with no SRAM stays without.
     */
    void clearMem();

    /**
     * Snapshot @p other's architectural state and SRAM into this
     * tile: registers, accumulators, CC, memory, write buffer and
     * per-lane read buffers. SRAM is copied only if @p other owns
     * some; otherwise this tile is left owning none. Statistics are
     * NOT copied — a clone starts counting from zero. Chip::clone()
     * drives this.
     */
    void copyStateFrom(const Tile &other);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    template <isa::UopKind K>
    static void opFn(Tile &t, const isa::MicroOp &uop);

    template <isa::UopKind K>
    static void opLoopFn(Tile &t, const isa::MicroOp &uop,
                         uint64_t iters);

    // Defined inline: Load/Store dominate mapped-app kernels, and the
    // Compiled backend's batched blocks execute them back to back.
    uint32_t
    loadFrom(uint32_t addr, unsigned size, bool sign_extend)
    {
        if (uint64_t(addr) + size > MemBytes) [[unlikely]]
            fatal("tile (%u,%u): load at 0x%x beyond SRAM", column_,
                  index_, addr);
        if (addr % size != 0) [[unlikely]]
            fatal("tile (%u,%u): unaligned %u-byte load at 0x%x",
                  column_, index_, size, addr);
        // Constant-size accesses per arm so each compiles to a single
        // load, not a libc memcpy call on a runtime length.
        uint32_t v;
        switch (size) {
          case 1:
            v = mem_[addr];
            break;
          case 2: {
            uint16_t h;
            std::memcpy(&h, mem_.data() + addr, 2);
            v = h;
            break;
          }
          default:
            std::memcpy(&v, mem_.data() + addr, 4);
            break;
        }
        if (sign_extend && size < 4) {
            unsigned shift = 32 - 8 * size;
            v = uint32_t(int32_t(v << shift) >> shift);
        }
        return v;
    }

    void
    storeTo(uint32_t addr, unsigned size, uint32_t value)
    {
        if (uint64_t(addr) + size > MemBytes) [[unlikely]]
            fatal("tile (%u,%u): store at 0x%x beyond SRAM", column_,
                  index_, addr);
        if (addr % size != 0) [[unlikely]]
            fatal("tile (%u,%u): unaligned %u-byte store at 0x%x",
                  column_, index_, size, addr);
        switch (size) {
          case 1:
            mem_[addr] = uint8_t(value);
            break;
          case 2: {
            uint16_t h = uint16_t(value);
            std::memcpy(mem_.data() + addr, &h, 2);
            break;
          }
          default:
            std::memcpy(mem_.data() + addr, &value, 4);
            break;
        }
    }

    uint32_t
    effectiveAddress(const isa::MicroOp &uop)
    {
        uint32_t p = pregs_[uop.rs1];
        if (!(uop.flags & isa::UopPostMod))
            return p + uint32_t(uop.imm);
        // Post-modify: access at p, then update the pointer.
        pregs_[uop.rs1] = p + uint32_t(uop.imm);
        return p;
    }

    unsigned column_;
    unsigned index_;

    std::array<uint32_t, isa::NumDataRegs> regs_{};
    std::array<uint32_t, isa::NumPtrRegs> pregs_{};
    std::array<int64_t, isa::NumAccums> accs_{};
    bool cc_ = false;

    std::vector<uint8_t> mem_; //!< MemBytes, or empty (no SRAM yet)
    CommBuffer wbuf_;
    std::array<CommBuffer, BusLanes> rbufs_; //!< one per lane

    StatGroup stats_;
    Counter &instructions_;
    Counter &mem_ops_;
    Counter &mac_ops_;
};

} // namespace synchro::arch

#endif // SYNC_ARCH_TILE_HH
