/**
 * @file
 * The taxicab demo: a step-by-step walkthrough of the paper's
 * Figure 2 example on a hand-built control flow graph, printing the
 * speculative history and the critic's learning process.
 *
 * The front-seat driver (prophet) keeps taking the wrong turn at
 * intersection A; the back-seat driver (critic) watches the next few
 * turns, learns the signature of being lost, and starts speaking up.
 */

#include <iostream>

#include "sim/driver.hh"
#include "sim/engine.hh"
#include "sim/metrics.hh"
#include "workload/cfg.hh"

using namespace pcbp;

namespace
{

/**
 * A CFG in the spirit of the paper's Figure 2: branch A is hard (it
 * XORs two committed bits from the previous lap), the paths after A
 * diverge through differently-biased blocks, and relay branches
 * re-expose the bits A depends on.
 */
Program
figure2Program()
{
    Program p("figure-2");
    auto add = [&](Addr pc, const BranchBehavior &beh, BlockId taken,
                   BlockId fall) {
        BasicBlock b;
        b.branchPc = pc;
        b.numUops = 8;
        b.takenTarget = taken;
        b.fallthroughTarget = fall;
        p.addBlock(b, beh);
    };

    // Blocks 0..3: W X Y Z — the "past branches" of the figure.
    // Two of them are coin flips (the entropy A depends on).
    add(0x100, BranchBehavior::biased(0.9, 1), 1, 1);   // W
    add(0x110, BranchBehavior::biased(0.5, 2), 2, 2);   // X
    add(0x120, BranchBehavior::biased(0.5, 3), 3, 3);   // Y
    add(0x130, BranchBehavior::biased(0.1, 4), 4, 4);   // Z
    // Spacer blocks so X and Y sit deeper than the critic's history
    // window at branch A (lags 18 and 19 with the layout below).
    for (int i = 0; i < 16; ++i) {
        add(0x140 + 16 * i, BranchBehavior::biased(0.95, 5 + i),
            static_cast<BlockId>(5 + i), static_cast<BlockId>(5 + i));
    }
    // Block 20: branch A = Y xor X from this lap. Per lap the
    // commits are W X Y Z, 16 spacers, A, one arm, two relays (24
    // total); at A, Y sits at lag 17 and X at lag 18.
    add(0x240, BranchBehavior::globalXor(17, 18, false, 0.0, 30),
        21, 22);
    // Blocks 21/22: the diverging arms (B vs C in the figure).
    add(0x250, BranchBehavior::biased(0.97, 31), 23, 23); // B
    add(0x260, BranchBehavior::biased(0.03, 32), 23, 23); // C
    // Blocks 23/24: relays re-exposing X and Y (E/H vs G/J). Each
    // relay is one commit later and targets a bit one older, so both
    // use lag 20.
    add(0x270, BranchBehavior::globalEcho(20, false, 0.0, 33),
        24, 24);
    add(0x280, BranchBehavior::globalEcho(20, false, 0.0, 34),
        0, 0);
    p.validate();
    return p;
}

} // namespace

int
main()
{
    std::cout <<
        "The taxi has two drivers. The front-seat driver (the\n"
        "prophet) makes every turn from experience; the back-seat\n"
        "driver (the critic) watches the next few turns before\n"
        "deciding they are lost (Sec. 1 of the paper).\n\n";

    Program prog = figure2Program();

    // Warm the hybrid up on the program, then replay a few laps and
    // narrate what happens at branch A.
    auto hybrid = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                             CriticKind::TaggedGshare, Budget::B8KB, 8)
                      .build();

    EngineConfig cfg;
    cfg.warmupBranches = 40000;
    cfg.measureBranches = 10000;
    H2PProfiler profiler(cfg.warmupBranches);
    cfg.commitSink = &profiler;
    Engine engine(prog, *hybrid, cfg);
    EngineStats st = engine.run();

    std::cout << "After " << (cfg.warmupBranches + cfg.measureBranches)
              << " branches on the Figure-2 course:\n\n";
    for (const BranchProfile &pb : profiler.profiles()) {
        if (pb.pc != 0x240)
            continue;
        std::cout << "intersection A (pc 0x240):\n"
                  << "  times visited (measured): " << pb.execs << "\n"
                  << "  front-seat driver wrong:  " << pb.prophetWrong
                  << " (" << fmtPercent(double(pb.prophetWrong) /
                                        double(pb.execs), 1)
                  << ")\n"
                  << "  after the back-seat driver: " << pb.finalWrong
                  << " (" << fmtPercent(double(pb.finalWrong) /
                                        double(pb.execs), 1)
                  << ")\n\n";
    }

    std::cout << "critique distribution on the course:\n";
    for (std::size_t c = 0; c < numCritiqueClasses; ++c) {
        const auto cls = static_cast<CritiqueClass>(c);
        std::cout << "  " << critiqueClassName(cls) << ": "
                  << st.critiques.get(cls) << "\n";
    }
    std::cout << "\noverall: " << fmtDouble(st.mispPerKuops(), 3)
              << " misp/Kuops; one flush every "
              << fmtDouble(st.uopsPerFlush(), 0) << " uops\n";

    // Show the live history for flavor: the prophet's BHR and the
    // critic's BOR are one register.
    std::cout << "\nfinal BHR/BOR (youngest last): "
              << hybrid->history().toString(24) << "\n";
    return 0;
}
