/**
 * @file
 * A small but real neural language model with manual backpropagation.
 *
 * The STV experiment (paper §5.7, Fig. 14) needs a genuine training
 * loop — loss that decreases, gradients that occasionally spike or
 * overflow under fp16 loss scaling, global-norm clipping that fires —
 * to demonstrate that speculation-then-validation preserves the exact
 * optimization trajectory. A full transformer is not required for any
 * of those properties; this embedding + one-hidden-layer LM over a
 * planted bigram corpus provides all of them at laptop scale (the
 * substitution is documented in DESIGN.md).
 *
 * Model: logits = W2 * relu(W1 * E[x] + b1) + b2, trained with softmax
 * cross-entropy against the next token.
 */
#ifndef SO_NN_MLP_LM_H
#define SO_NN_MLP_LM_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/model.h"

namespace so::nn {

/** Dimensions of the MLP language model. */
struct MlpLmConfig
{
    std::uint32_t vocab = 256;
    std::uint32_t embed = 64;
    std::uint32_t hidden = 256;
};

/** Views locating each tensor inside the flat parameter vector. */
struct ParamLayout
{
    std::size_t embedding = 0;  // vocab x embed
    std::size_t w1 = 0;         // hidden x embed
    std::size_t b1 = 0;         // hidden
    std::size_t w2 = 0;         // vocab x hidden
    std::size_t b2 = 0;         // vocab
    std::size_t total = 0;
};

/**
 * Flat-parameter MLP language model.
 *
 * Parameters and gradients live in single contiguous vectors so the
 * offloading machinery can slice them into transfer buckets exactly as
 * it would slice a transformer's parameters.
 */
class MlpLm : public Model
{
  public:
    MlpLm(const MlpLmConfig &cfg, std::uint64_t seed);

    const ParamLayout &layout() const { return layout_; }

    std::size_t paramCount() const override { return params_.size(); }

    float *params() override { return params_.data(); }
    const float *params() const override { return params_.data(); }

    float *grads() override { return grads_.data(); }
    const float *grads() const override { return grads_.data(); }

    /**
     * Forward + backward over @p count (input, target) token pairs.
     * Fills the gradient vector (overwriting it) and returns the mean
     * cross-entropy loss. @p loss_scale multiplies the loss before
     * backprop (standard mixed-precision loss scaling); gradients are
     * returned *scaled* — the caller unscales, exactly as a framework
     * would.
     */
    float trainBatch(const std::uint32_t *inputs,
                     const std::uint32_t *targets, std::size_t count,
                     float loss_scale = 1.0f) override;

    /** Mean loss only, no gradient computation. */
    float evalBatch(const std::uint32_t *inputs,
                    const std::uint32_t *targets,
                    std::size_t count) const override;

  private:
    void forwardHidden(std::uint32_t token, float *hidden_out,
                       float *pre_act) const;

    MlpLmConfig cfg_;
    ParamLayout layout_;
    std::vector<float> params_;
    std::vector<float> grads_;
    // Scratch reused across batches to avoid per-call allocation.
    mutable std::vector<float> scratch_;
};

} // namespace so::nn

#endif // SO_NN_MLP_LM_H
