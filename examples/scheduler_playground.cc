/**
 * @file
 * Scheduler playground: drive the scheduling stack directly through
 * the library's lower-level APIs — the predictor, the offline ILP
 * partitioner and the window rebalancer — on a small synthetic
 * model, printing what each mechanism does.  A tour for developers
 * extending Hermes' scheduling.
 */

#include <cstdio>

#include "common/table.hh"
#include "model/llm_config.hh"
#include "sched/ilp_partition.hh"
#include "sched/mapper.hh"
#include "sched/predictor.hh"
#include "sched/window_scheduler.hh"
#include "sparsity/trace.hh"

int
main()
{
    using namespace hermes;
    using namespace hermes::sched;

    // A toy 4-layer model keeps the tables readable.
    model::LlmConfig llm = model::llama2_13b();
    llm.layers = 4;
    llm.hidden = 1024;
    llm.ffnHidden = 2048;
    llm.heads = 16;
    llm.kvHeads = 16;

    sparsity::ActivationTrace trace(llm, sparsity::SparsityConfig{},
                                    1);

    // --- 1. Offline partition (Sec. IV-B). ---
    std::printf("== offline ILP partition ==\n");
    const std::vector<double> freq =
        profileActivations(trace, 64, 1).mlp[0];
    PartitionProblem problem;
    BlockProblem block;
    block.frequency = freq;
    block.neuronBytes = llm.mlpNeuronBytes();
    block.gpuTimePerNeuron = 10e-9;
    block.dimmTimePerNeuron = 400e-9;
    problem.blocks.push_back(block);
    problem.gpuBudget = 512 * llm.mlpNeuronBytes();
    problem.dimmBudgets.assign(4, 1ULL * kGiB);
    const PartitionResult partition = IlpPartitioner().solve(problem);
    std::uint32_t hot = 0;
    for (const auto loc : partition.assignment.location[0])
        hot += loc < 0;
    std::printf("hot neurons on GPU: %u of %zu; objective %.1f us\n",
                hot, freq.size(), partition.objective * 1e6);

    // --- 2. Online prediction (Sec. IV-C). ---
    std::printf("\n== lightweight predictor ==\n");
    ModelPredictor predictor(llm, PredictorConfig{});
    trace.reset(0);
    predictor.calibrate(trace, 64);
    trace.reset(1);
    std::vector<std::vector<std::uint8_t>> attn_masks, mlp_masks;
    for (int t = 0; t < 32; ++t) {
        trace.nextToken();
        predictor.stepToken(trace, attn_masks, mlp_masks);
    }
    std::printf("accuracy %.1f%%, recall %.1f%%, state table %.1f "
                "KB\n",
                100.0 * predictor.metrics().accuracy(),
                100.0 * predictor.metrics().recall(),
                predictor.stateTableBytes() / 1024.0);

    // --- 3. Online adjustment (Sec. IV-C2). ---
    std::printf("\n== online hot/cold adjustment ==\n");
    // The GPU starts out holding section 1's ILP hot set; the live
    // scores then swap neurons in and out of it.
    BlockPlacement block_placement(trace.mlp(0).neurons(), 4);
    for (std::uint32_t i = 0; i < block_placement.neurons(); ++i) {
        block_placement.setHomeDimm(
            i, static_cast<std::uint16_t>(i % 4));
        block_placement.setOnGpu(
            i, partition.assignment.location[0][i] < 0);
    }
    std::vector<std::uint32_t> hot_scores;
    predictor.mlp(0).hotScores(&trace.attn(0).mask, true, true,
                               hot_scores);
    const AdjustmentResult adjust = NeuronMapper::adjustBlock(
        block_placement, hot_scores, llm.mlpNeuronBytes());
    std::printf("promotions %llu, evictions %llu, %.1f KiB over "
                "PCIe\n",
                static_cast<unsigned long long>(adjust.promotions),
                static_cast<unsigned long long>(adjust.evictions),
                adjust.pcieBytes / 1024.0);

    // --- 4. Window rebalancing (Sec. IV-D, Algorithm 1). ---
    std::printf("\n== window-based rebalancing ==\n");
    WindowScheduler window(trace.mlp(0).neurons(), 4, 5);
    for (int t = 0; t < 5; ++t) {
        trace.nextToken();
        window.observe(trace.mlp(0).activeList);
    }
    const auto before = window.dimmLoads(block_placement);
    TextTable loads({"", "DIMM0", "DIMM1", "DIMM2", "DIMM3"});
    auto row = [&](const char *label,
                   const std::vector<std::uint64_t> &values) {
        std::vector<std::string> cells = {label};
        for (const auto value : values)
            cells.push_back(std::to_string(value));
        loads.addRow(cells);
    };
    row("before", before);
    WindowScheduler replay(trace.mlp(0).neurons(), 4, 5);
    trace.reset(2);
    for (int t = 0; t < 5; ++t) {
        trace.nextToken();
        replay.observe(trace.mlp(0).activeList);
    }
    const auto transfers =
        replay.rebalance(block_placement, llm.mlpNeuronBytes());
    WindowScheduler probe(trace.mlp(0).neurons(), 4, 5);
    trace.reset(2);
    for (int t = 0; t < 5; ++t) {
        trace.nextToken();
        probe.observe(trace.mlp(0).activeList);
    }
    row("after", probe.dimmLoads(block_placement));
    loads.print();
    std::printf("%zu migration batches issued over DIMM-links\n",
                transfers.size());
    return 0;
}
