#include "model/llm_config.hh"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace hermes::model {

Flops
LlmConfig::denseFlopsPerToken(std::uint64_t seq_len) const
{
    // QKV + projection + MLP GEMVs, plus attention over the cache.
    const double h = hidden;
    const double qkv = 2.0 * h * (h + 2.0 * kvDim());
    const double proj = 2.0 * h * h;
    const double mlp = 2.0 * mlpMatrices * h * ffnHidden;
    const double attn =
        2.0 * 2.0 * heads * static_cast<double>(seq_len) * headDim();
    return layers * (qkv + proj + mlp + attn) + 2.0 * h * vocab;
}

LlmConfig
opt13b()
{
    LlmConfig c;
    c.name = "OPT-13B";
    c.layers = 40;
    c.hidden = 5120;
    c.ffnHidden = 20480;
    c.heads = 40;
    c.kvHeads = 40;
    c.vocab = 50272;
    c.mlpMatrices = 2;
    c.activation = Activation::NativeRelu;
    return c;
}

LlmConfig
opt30b()
{
    LlmConfig c;
    c.name = "OPT-30B";
    c.layers = 48;
    c.hidden = 7168;
    c.ffnHidden = 28672;
    c.heads = 56;
    c.kvHeads = 56;
    c.vocab = 50272;
    c.mlpMatrices = 2;
    c.activation = Activation::NativeRelu;
    return c;
}

LlmConfig
opt66b()
{
    LlmConfig c;
    c.name = "OPT-66B";
    c.layers = 64;
    c.hidden = 9216;
    c.ffnHidden = 36864;
    c.heads = 72;
    c.kvHeads = 72;
    c.vocab = 50272;
    c.mlpMatrices = 2;
    c.activation = Activation::NativeRelu;
    return c;
}

LlmConfig
llama2_13b()
{
    LlmConfig c;
    c.name = "LLaMA2-13B";
    c.layers = 40;
    c.hidden = 5120;
    c.ffnHidden = 13824;
    c.heads = 40;
    c.kvHeads = 40;
    c.vocab = 32000;
    c.mlpMatrices = 3;
    c.activation = Activation::RelufiedSilu;
    return c;
}

LlmConfig
llama2_70b()
{
    LlmConfig c;
    c.name = "LLaMA2-70B";
    c.layers = 80;
    c.hidden = 8192;
    c.ffnHidden = 28672;
    c.heads = 64;
    c.kvHeads = 8;
    c.vocab = 32000;
    c.mlpMatrices = 3;
    c.activation = Activation::RelufiedSilu;
    return c;
}

LlmConfig
falcon40b()
{
    LlmConfig c;
    c.name = "Falcon-40B";
    c.layers = 60;
    c.hidden = 8192;
    c.ffnHidden = 32768;
    c.heads = 128;
    c.kvHeads = 8;
    c.vocab = 65024;
    c.mlpMatrices = 2;
    c.activation = Activation::RelufiedGelu;
    return c;
}

std::vector<LlmConfig>
allModels()
{
    return {opt13b(), opt30b(), opt66b(), llama2_13b(), llama2_70b(),
            falcon40b()};
}

LlmConfig
modelByName(const std::string &name)
{
    std::string known;
    for (const auto &config : allModels()) {
        if (config.name == name)
            return config;
        known += (known.empty() ? "" : ", ") + config.name;
    }
    throw std::invalid_argument("unknown model '" + name +
                                "' (known: " + known + ")");
}

} // namespace hermes::model
