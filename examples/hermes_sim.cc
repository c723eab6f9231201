/**
 * @file
 * Command-line driver for the simulator — the entry point a user of
 * the released system would script against.
 *
 * Usage:
 *   hermes_sim [--model NAME] [--engine NAME|all] [--batch N]
 *              [--dimms N] [--gpu 4090|3090|t4] [--prompt N]
 *              [--gen N] [--layers N] [--seed N]
 *
 * Examples:
 *   hermes_sim --model LLaMA2-70B --engine all --batch 4
 *   hermes_sim --model OPT-66B --engine Hermes --dimms 16
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/table.hh"
#include "core/hermes.hh"

namespace {

using namespace hermes;

struct Options
{
    std::string model = "LLaMA2-70B";
    std::string engine = "Hermes";
    std::uint32_t batch = 1;
    std::uint32_t dimms = 8;
    std::string gpu = "4090";
    std::uint32_t prompt = 128;
    std::uint32_t gen = 128;
    std::uint32_t layers = 8; ///< Simulated-layer sample (0 = all).
    std::uint64_t seed = 1;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--model NAME] [--engine NAME|all] [--batch N]\n"
        "          [--dimms N] [--gpu 4090|3090|t4] [--prompt N]\n"
        "          [--gen N] [--layers N] [--seed N]\n\n"
        "models : OPT-13B OPT-30B OPT-66B LLaMA2-13B LLaMA2-70B "
        "Falcon-40B\n"
        "engines: Accelerate FlexGen DejaVu Hermes-host Hermes-base "
        "Hermes TensorRT-LLM all\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--model"))
            options.model = next();
        else if (!std::strcmp(argv[i], "--engine"))
            options.engine = next();
        else if (!std::strcmp(argv[i], "--batch"))
            options.batch =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (!std::strcmp(argv[i], "--dimms"))
            options.dimms =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (!std::strcmp(argv[i], "--gpu"))
            options.gpu = next();
        else if (!std::strcmp(argv[i], "--prompt"))
            options.prompt =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (!std::strcmp(argv[i], "--gen"))
            options.gen =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (!std::strcmp(argv[i], "--layers"))
            options.layers =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (!std::strcmp(argv[i], "--seed"))
            options.seed =
                static_cast<std::uint64_t>(std::atoll(next()));
        else
            usage(argv[0]);
    }
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);

    SystemConfig config;
    config.simulatedLayers = options.layers;
    config.numDimms = options.dimms;
    if (options.gpu == "4090")
        config.gpu = gpu::rtx4090();
    else if (options.gpu == "3090")
        config.gpu = gpu::rtx3090();
    else if (options.gpu == "t4" || options.gpu == "T4")
        config.gpu = gpu::teslaT4();
    else
        usage(argv[0]);

    InferenceRequest request;
    try {
        request.llm = model::modelByName(options.model);
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }
    request.batch = options.batch;
    request.promptTokens = options.prompt;
    request.generateTokens = options.gen;
    request.seed = options.seed;

    std::vector<EngineKind> kinds;
    if (options.engine == "all") {
        kinds = runtime::allEngineKinds();
    } else {
        bool found = false;
        for (const auto kind : runtime::allEngineKinds()) {
            if (runtime::engineKindName(kind) == options.engine) {
                kinds.push_back(kind);
                found = true;
            }
        }
        if (!found)
            usage(argv[0]);
    }

    std::printf("platform: %s + %u NDP-DIMMs (%s, batch %u, "
                "%u+%u tokens)\n\n",
                config.gpu.name.c_str(), config.numDimms,
                options.model.c_str(), options.batch, options.prompt,
                options.gen);

    TextTable table({"engine", "tokens/s", "prefill s", "generate s",
                     "comm %", "predictor %"});
    System system(config);
    for (const auto &result : system.compare(request, kinds)) {
        if (!result.supported) {
            table.addRow({result.engine, "N.P.",
                          result.unsupportedReason, "-", "-", "-"});
            continue;
        }
        const double total = result.breakdown.total();
        table.addRow(
            {result.engine, TextTable::num(result.tokensPerSecond, 2),
             TextTable::num(result.prefillTime, 2),
             TextTable::num(result.generateTime, 2),
             TextTable::num(
                 100.0 * result.breakdown.communication / total, 1),
             TextTable::num(
                 100.0 * result.breakdown.predictor / total, 2)});
    }
    table.print();
    return 0;
}
