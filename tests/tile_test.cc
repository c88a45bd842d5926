/** @file Tile datapath semantics, one behaviour per test. */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "arch/tile.hh"
#include "common/log.hh"
#include "isa/inst.hh"
#include "test_util.hh"

using namespace synchro;
using namespace synchro::arch;
using namespace synchro::isa;
namespace b = synchro::isa::build;

class TileTest : public ::testing::Test
{
  protected:
    Tile t{0, 2}; // column 0, position 2 (TID must read 2)
};

TEST_F(TileTest, AddSubWrap)
{
    t.setReg(1, 0xffffffff);
    t.setReg(2, 2);
    t.execute(b::alu3(Opcode::ADD, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 1u); // wraps, no saturation on 32-bit add
    t.execute(b::alu3(Opcode::SUB, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 0xfffffffdu);
}

TEST_F(TileTest, Logic)
{
    t.setReg(1, 0xf0f0);
    t.setReg(2, 0x0ff0);
    t.execute(b::alu3(Opcode::AND_, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 0x00f0u);
    t.execute(b::alu3(Opcode::OR_, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 0xfff0u);
    t.execute(b::alu3(Opcode::XOR_, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 0xff00u);
    t.execute(b::alu2(Opcode::NOT_, 0, 1));
    EXPECT_EQ(t.reg(0), 0xffff0f0fu);
}

TEST_F(TileTest, MinMaxAreSigned)
{
    t.setReg(1, uint32_t(-5));
    t.setReg(2, 3);
    t.execute(b::alu3(Opcode::MIN, 0, 1, 2));
    EXPECT_EQ(int32_t(t.reg(0)), -5);
    t.execute(b::alu3(Opcode::MAX, 0, 1, 2));
    EXPECT_EQ(int32_t(t.reg(0)), 3);
}

TEST_F(TileTest, Shifts)
{
    t.setReg(1, 0x80000001);
    t.setReg(2, 4);
    t.execute(b::alu3(Opcode::LSL, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 0x00000010u);
    t.execute(b::alu3(Opcode::LSR, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 0x08000000u);
    t.execute(b::alu3(Opcode::ASR, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 0xf8000000u);
    // Shift amounts use only the low 5 bits.
    t.setReg(2, 36);
    t.execute(b::alu3(Opcode::LSL, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 0x00000010u);
}

TEST_F(TileTest, ShiftImmediates)
{
    t.setReg(1, 0xffff0000);
    t.execute(b::shiftImm(Opcode::LSRI, 0, 1, 16));
    EXPECT_EQ(t.reg(0), 0x0000ffffu);
    t.execute(b::shiftImm(Opcode::ASRI, 0, 1, 16));
    EXPECT_EQ(t.reg(0), 0xffffffffu);
    t.execute(b::shiftImm(Opcode::LSLI, 0, 1, 8));
    EXPECT_EQ(t.reg(0), 0xff000000u);
}

TEST_F(TileTest, MulLow32Signed)
{
    t.setReg(1, uint32_t(-3));
    t.setReg(2, 100000);
    t.execute(b::alu3(Opcode::MUL, 0, 1, 2));
    EXPECT_EQ(int32_t(t.reg(0)), -300000);
}

TEST_F(TileTest, AbsSaturates)
{
    t.setReg(1, uint32_t(INT32_MIN));
    t.execute(b::alu2(Opcode::ABS, 0, 1));
    EXPECT_EQ(int32_t(t.reg(0)), INT32_MAX);
    t.setReg(1, uint32_t(-7));
    t.execute(b::alu2(Opcode::ABS, 0, 1));
    EXPECT_EQ(t.reg(0), 7u);
}

TEST_F(TileTest, SelUsesCc)
{
    t.setReg(1, 11);
    t.setReg(2, 22);
    t.setCc(true);
    t.execute(b::alu3(Opcode::SEL, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 11u);
    t.setCc(false);
    t.execute(b::alu3(Opcode::SEL, 0, 1, 2));
    EXPECT_EQ(t.reg(0), 22u);
}

TEST_F(TileTest, Add16SaturatesPerHalf)
{
    t.setReg(1, (uint32_t(30000) << 16) | uint16_t(-30000));
    t.setReg(2, (uint32_t(10000) << 16) | uint16_t(-10000));
    t.execute(b::alu3(Opcode::ADD16, 0, 1, 2));
    EXPECT_EQ(int16_t(t.reg(0) >> 16), INT16_MAX);
    EXPECT_EQ(int16_t(t.reg(0) & 0xffff), INT16_MIN);
}

TEST_F(TileTest, MacHalfSelection)
{
    // rs1 = [hi=3 | lo=5], rs2 = [hi=7 | lo=11]
    t.setReg(1, (3u << 16) | 5u);
    t.setReg(2, (7u << 16) | 11u);
    t.execute(b::mac(Opcode::MAC, 0, 1, 2, HalfSel::LL));
    EXPECT_EQ(t.acc(0), 55);
    t.execute(b::mac(Opcode::MAC, 0, 1, 2, HalfSel::HH));
    EXPECT_EQ(t.acc(0), 55 + 21);
    t.execute(b::mac(Opcode::MAC, 0, 1, 2, HalfSel::LH));
    EXPECT_EQ(t.acc(0), 55 + 21 + 35); // lo(rs1) * hi(rs2)
    t.execute(b::mac(Opcode::MSU, 0, 1, 2, HalfSel::HL));
    EXPECT_EQ(t.acc(0), 55 + 21 + 35 - 33);
}

TEST_F(TileTest, MacNegativeHalves)
{
    t.setReg(1, uint16_t(-4));
    t.setReg(2, uint16_t(9));
    t.execute(b::mac(Opcode::MAC, 1, 1, 2, HalfSel::LL));
    EXPECT_EQ(t.acc(1), -36);
}

TEST_F(TileTest, AccumulatorSaturatesAt40Bits)
{
    t.setAcc(0, (int64_t(1) << 39) - 10);
    t.setReg(1, 100);
    t.setReg(2, 100);
    t.execute(b::mac(Opcode::MAC, 0, 1, 2, HalfSel::LL));
    EXPECT_EQ(t.acc(0), (int64_t(1) << 39) - 1);
}

TEST_F(TileTest, SaaSumsAbsByteDiffs)
{
    t.setReg(1, 0x10'20'30'40u);
    t.setReg(2, 0x40'10'20'80u);
    // |0x10-0x40| + |0x20-0x10| + |0x30-0x20| + |0x40-0x80|
    t.execute(b::saa(0, 1, 2));
    EXPECT_EQ(t.acc(0), 0x30 + 0x10 + 0x10 + 0x40);
}

TEST_F(TileTest, AclrAndAext)
{
    t.setAcc(0, 0x12345678);
    t.execute(b::aext(0, 0, 8));
    EXPECT_EQ(t.reg(0), 0x123456u);
    t.setAcc(0, int64_t(1) << 38);
    t.execute(b::aext(0, 0, 0));
    EXPECT_EQ(int32_t(t.reg(0)), INT32_MAX); // saturating extract
    t.execute(b::aclr(0));
    EXPECT_EQ(t.acc(0), 0);
}

TEST_F(TileTest, MoveImmediates)
{
    t.execute(b::movi(0, -2));
    EXPECT_EQ(t.reg(0), 0xfffffffeu);
    t.execute(b::movih(0, 0x1234));
    EXPECT_EQ(t.reg(0), 0x1234fffeu);
    t.execute(b::movpi(3, 0x7f00));
    EXPECT_EQ(t.preg(3), 0x7f00u);
    t.execute(b::paddi(3, -0x100));
    EXPECT_EQ(t.preg(3), 0x7e00u);
}

TEST_F(TileTest, PointerMoves)
{
    t.setReg(1, 0x400);
    t.execute(b::movp(2, 1));
    EXPECT_EQ(t.preg(2), 0x400u);
    t.execute(b::movrp(5, 2));
    EXPECT_EQ(t.reg(5), 0x400u);
}

TEST_F(TileTest, TidReadsPosition)
{
    t.execute(b::tid(4));
    EXPECT_EQ(t.reg(4), 2u); // constructed at position 2
}

TEST_F(TileTest, LoadStoreWidths)
{
    t.setPreg(0, 0x100);
    t.setReg(1, 0xdeadbeef);
    t.execute(b::store(Opcode::STW, 1, 0, MemMode::Offset, 0));
    t.execute(b::load(Opcode::LDW, 2, 0, MemMode::Offset, 0));
    EXPECT_EQ(t.reg(2), 0xdeadbeefu);
    t.execute(b::load(Opcode::LDH, 3, 0, MemMode::Offset, 0));
    EXPECT_EQ(int32_t(t.reg(3)), int32_t(int16_t(0xbeef)));
    t.execute(b::load(Opcode::LDHU, 3, 0, MemMode::Offset, 0));
    EXPECT_EQ(t.reg(3), 0xbeefu);
    t.execute(b::load(Opcode::LDB, 4, 0, MemMode::Offset, 3));
    EXPECT_EQ(int32_t(t.reg(4)), int32_t(int8_t(0xde)));
    t.execute(b::load(Opcode::LDBU, 4, 0, MemMode::Offset, 3));
    EXPECT_EQ(t.reg(4), 0xdeu);
}

TEST_F(TileTest, PostModifyUpdatesPointerAfterAccess)
{
    t.setPreg(1, 0x200);
    t.writeMemWords(0x200, {111, 222});
    t.execute(b::load(Opcode::LDW, 0, 1, MemMode::PostMod, 4));
    EXPECT_EQ(t.reg(0), 111u); // value at the *old* pointer
    EXPECT_EQ(t.preg(1), 0x204u);
    t.execute(b::load(Opcode::LDW, 0, 1, MemMode::PostMod, -4));
    EXPECT_EQ(t.reg(0), 222u);
    EXPECT_EQ(t.preg(1), 0x200u);
}

TEST_F(TileTest, OffsetModeLeavesPointer)
{
    t.setPreg(1, 0x200);
    t.writeMemWords(0x204, {42});
    t.execute(b::load(Opcode::LDW, 0, 1, MemMode::Offset, 4));
    EXPECT_EQ(t.reg(0), 42u);
    EXPECT_EQ(t.preg(1), 0x200u);
}

TEST_F(TileTest, UnalignedAndOutOfRangeAccessesAreFatal)
{
    t.setPreg(0, 0x101);
    EXPECT_THROW(
        t.execute(b::load(Opcode::LDW, 0, 0, MemMode::Offset, 0)),
        FatalError);
    t.setPreg(0, Tile::MemBytes - 2);
    EXPECT_THROW(
        t.execute(b::load(Opcode::LDW, 0, 0, MemMode::Offset, 0)),
        FatalError);
    EXPECT_THROW(
        t.execute(b::store(Opcode::STW, 0, 0, MemMode::Offset, 0)),
        FatalError);
}

TEST_F(TileTest, Compares)
{
    t.setReg(1, uint32_t(-1));
    t.setReg(2, 1);
    t.execute(b::cmp(Opcode::CMPLT, 1, 2)); // -1 < 1 signed
    EXPECT_TRUE(t.cc());
    t.execute(b::cmp(Opcode::CMPLTU, 1, 2)); // 0xffffffff < 1 unsigned
    EXPECT_FALSE(t.cc());
    t.execute(b::cmp(Opcode::CMPEQ, 1, 1));
    EXPECT_TRUE(t.cc());
    t.execute(b::cmp(Opcode::CMPLE, 2, 2));
    EXPECT_TRUE(t.cc());
}

TEST_F(TileTest, CommBuffersThroughCwrCrd)
{
    t.setReg(7, 0xabcd);
    t.execute(b::cwr(7));
    EXPECT_TRUE(t.writeBuffer().valid());
    EXPECT_EQ(t.writeBuffer().peek(), 0xabcdu);
    // Simulate the DOU moving it to another tile's read buffer.
    uint32_t v = t.writeBuffer().pop();
    t.readBuffer().push(v);
    t.execute(b::crd(3));
    EXPECT_EQ(t.reg(3), 0xabcdu);
    EXPECT_FALSE(t.readBuffer().valid());
}

TEST_F(TileTest, UncheckedCommIsPanic)
{
    EXPECT_THROW(t.execute(b::crd(0)), PanicError);
    t.setReg(7, 1);
    t.execute(b::cwr(7));
    EXPECT_THROW(t.execute(b::cwr(7)), PanicError);
}

TEST_F(TileTest, ControlOpcodeOnTileIsPanic)
{
    EXPECT_THROW(t.execute(b::jump(0)), PanicError);
}

TEST_F(TileTest, AccessorIndicesAreBoundsChecked)
{
    // Regression for the latent-UB audit: every architectural-state
    // accessor rejects out-of-range indices instead of indexing past
    // the register file.
    EXPECT_THROW(t.reg(NumDataRegs), PanicError);
    EXPECT_THROW(t.setReg(NumDataRegs, 1), PanicError);
    EXPECT_THROW(t.preg(NumPtrRegs), PanicError);
    EXPECT_THROW(t.setPreg(NumPtrRegs, 1), PanicError);
    EXPECT_THROW(t.acc(NumAccums), PanicError);
    EXPECT_THROW(t.setAcc(NumAccums, 1), PanicError);
    // In-range indices still work after the failed accesses.
    t.setReg(NumDataRegs - 1, 7);
    EXPECT_EQ(t.reg(NumDataRegs - 1), 7u);
}

TEST_F(TileTest, BroadcastOperandsAreBoundsChecked)
{
    // A hand-built instruction with a bad register index is rejected
    // at decode time (fatal), never reaching the datapath arrays.
    EXPECT_THROW(t.execute(b::alu3(Opcode::ADD, 9, 0, 0)),
                 FatalError);
    EXPECT_THROW(t.execute(b::movp(7, 0)), FatalError);
    EXPECT_THROW(t.execute(b::shiftImm(Opcode::LSRI, 0, 0, 33)),
                 FatalError);
}

TEST_F(TileTest, StatsCountInstructions)
{
    t.setPreg(0, 0);
    t.execute(b::movi(0, 1));
    t.execute(b::load(Opcode::LDW, 1, 0, MemMode::Offset, 0));
    t.execute(b::mac(Opcode::MAC, 0, 0, 1, HalfSel::LL));
    EXPECT_EQ(t.stats().value("instructions"), 3u);
    EXPECT_EQ(t.stats().value("memOps"), 1u);
    EXPECT_EQ(t.stats().value("macOps"), 1u);
}

TEST_F(TileTest, MemoryHelpersRoundTrip)
{
    std::vector<int16_t> h{1, -2, 3, -4};
    t.writeMemHalves(0x40, h);
    EXPECT_EQ(t.readMemHalves(0x40, 4), h);
    std::vector<int32_t> w{100, -200};
    t.writeMemWords(0x80, w);
    EXPECT_EQ(t.readMemWords(0x80, 2), w);
}

namespace
{

/** The message of the FatalError @p fn throws ("" if none). */
std::string
fatalMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(TileMemory, SramIsAllocatedOnFirstWrite)
{
    Tile t{1, 3};
    EXPECT_FALSE(t.hasMem());
    // A tile without SRAM reads as zeros and clears to nothing.
    EXPECT_EQ(t.readMemWords(Tile::MemBytes - 8, 2),
              (std::vector<int32_t>{0, 0}));
    t.clearMem();
    EXPECT_FALSE(t.hasMem());

    t.writeMemWords(0x10, {7, -7});
    EXPECT_TRUE(t.hasMem());
    EXPECT_EQ(t.readMemWords(0x10, 2), (std::vector<int32_t>{7, -7}));
    EXPECT_EQ(t.readMemWords(0x18, 1), (std::vector<int32_t>{0}));
    t.clearMem();
    EXPECT_TRUE(t.hasMem());
    EXPECT_EQ(t.readMemWords(0x10, 1), (std::vector<int32_t>{0}));
}

TEST(TileMemory, BareExecuteAllocatesSram)
{
    Tile t{0, 1};
    t.execute(b::movi(0, 5));
    EXPECT_TRUE(t.hasMem());

    Tile u{0, 1};
    u.setReg(1, 0x1234);
    u.setPreg(0, Tile::MemBytes - 4);
    u.execute(decodeInst(b::store(Opcode::STW, 1, 0, MemMode::Offset, 0)));
    EXPECT_EQ(u.readMemWords(Tile::MemBytes - 4, 1),
              (std::vector<int32_t>{0x1234}));
}

TEST(TileMemory, CopyStateFromCopiesOnlyExistingSram)
{
    Tile gated{0, 1}, dst{0, 1};
    dst.writeMemWords(0, {1});
    dst.copyStateFrom(gated);
    EXPECT_FALSE(dst.hasMem());
    EXPECT_EQ(dst.readMemWords(0, 1), (std::vector<int32_t>{0}));

    Tile src{0, 1};
    src.writeMemWords(0x40, {42});
    dst.copyStateFrom(src);
    ASSERT_TRUE(dst.hasMem());
    EXPECT_EQ(dst.readMemWords(0x40, 1), (std::vector<int32_t>{42}));
    // The copy owns its SRAM: writing it leaves the source alone.
    dst.writeMemWords(0x40, {43});
    EXPECT_EQ(src.readMemWords(0x40, 1), (std::vector<int32_t>{42}));
}

TEST(TileMemory, BadAccessesStayFatalWithTheirMessages)
{
    for (bool allocated : {false, true}) {
        SCOPED_TRACE(allocated ? "with SRAM" : "without SRAM");
        Tile t{0, 2};
        if (allocated)
            t.allocMem();
        uint8_t buf[4] = {};
        EXPECT_EQ(fatalMessage([&] { t.readMem(0x7ffe, buf, 4); }),
                  "fatal: tile (0,2): readMem [32766, 32770) beyond "
                  "32768-byte SRAM");
        EXPECT_EQ(fatalMessage([&] { t.writeMem(0x7ffe, buf, 4); }),
                  "fatal: tile (0,2): writeMem [32766, 32770) beyond "
                  "32768-byte SRAM");
        // A rejected write allocates nothing.
        EXPECT_EQ(t.hasMem(), allocated);

        t.setPreg(0, Tile::MemBytes);
        EXPECT_EQ(fatalMessage([&] {
                      t.execute(b::load(Opcode::LDW, 0, 0,
                                        MemMode::Offset, 0));
                  }),
                  "fatal: tile (0,2): load at 0x8000 beyond SRAM");
        EXPECT_EQ(fatalMessage([&] {
                      t.execute(b::store(Opcode::STH, 0, 0,
                                         MemMode::Offset, 0));
                  }),
                  "fatal: tile (0,2): store at 0x8000 beyond SRAM");
        t.setPreg(0, 0x101);
        EXPECT_EQ(fatalMessage([&] {
                      t.execute(b::load(Opcode::LDW, 0, 0,
                                        MemMode::Offset, 0));
                  }),
                  "fatal: tile (0,2): unaligned 4-byte load at 0x101");
        EXPECT_EQ(fatalMessage([&] {
                      t.execute(b::store(Opcode::STH, 0, 0,
                                         MemMode::Offset, 0));
                  }),
                  "fatal: tile (0,2): unaligned 2-byte store at 0x101");
    }
}

TEST(TileMemory, ReactivatedGatedTileStoresAndLoadsOnBothBackends)
{
    // Every tile stores its TID in the last SRAM word and loads it
    // back. Tiles 1-3 are gated at load, as mapped apps gate them;
    // tile 2 is then re-activated and must get SRAM for the run.
    auto configure = [](Chip &chip) {
        Column &col = chip.column(0);
        col.controller().loadProgram(assemble(R"(
            movpi p0, 0x7ffc
            tid r1
            addi r1, 100
            st.w r1, [p0]
            ld.w r2, [p0]
            halt
        )"));
        for (unsigned i = 1; i < col.numTiles(); ++i)
            col.setTileActive(i, false);
        col.setTileActive(2, true);
    };
    ChipConfig cfg;
    cfg.dividers = {1};
    synchro::test::crossCheckBackends(cfg, configure);

    for (SchedulerKind kind : synchro::test::AllSchedulerKinds) {
        SCOPED_TRACE(schedulerName(kind));
        cfg.scheduler = kind;
        Chip chip(cfg);
        configure(chip);
        EXPECT_FALSE(chip.column(0).tile(2).hasMem());
        ASSERT_EQ(int(chip.run(1000).exit), int(RunExit::AllHalted));
        const Column &col = chip.column(0);
        for (unsigned i : {0u, 2u}) {
            EXPECT_TRUE(col.tile(i).hasMem()) << i;
            EXPECT_EQ(col.tile(i).reg(2), 100 + i);
            EXPECT_EQ(col.tile(i).readMemWords(0x7ffc, 1),
                      (std::vector<int32_t>{int32_t(100 + i)}));
        }
        for (unsigned i : {1u, 3u}) {
            EXPECT_FALSE(col.tile(i).hasMem()) << i;
            EXPECT_EQ(col.tile(i).readMemWords(0x7ffc, 1),
                      (std::vector<int32_t>{0}));
        }
    }
}
