/**
 * @file
 * A real single-head causal self-attention language model with
 * hand-derived backpropagation.
 *
 * The paper trains transformers; the MLP substitution (mlp_lm.h)
 * covers every mixed-precision/offloading behaviour except the
 * transformer's defining operation. This model adds it: token
 * embeddings feed causal scaled-dot-product attention with a residual
 * connection, then a ReLU MLP head. Training batches are interpreted
 * as one contiguous token window (which is exactly what the streaming
 * corpus produces), so the model can exploit context beyond the
 * current token — verifiable on an order-2 corpus where the MLP is
 * information-theoretically stuck.
 *
 * Architecture, per position i of a window of n tokens:
 *   e_i   = E[x_i] + P[i]                 (learned positions)
 *   q_i, k_i, v_i = Wq e_i, Wk e_i, Wv e_i
 *   a_ij  = softmax_j<=i( q_i . k_j / sqrt(d) )
 *   ctx_i = sum_j a_ij v_j
 *   r_i   = e_i + Wo ctx_i                (residual)
 *   h_i   = relu(W1 r_i + b1)
 *   logits_i = W2 h_i + b2
 */
#ifndef SO_NN_ATTENTION_LM_H
#define SO_NN_ATTENTION_LM_H

#include <cstdint>
#include <vector>

#include "nn/model.h"

namespace so::nn {

/** Dimensions of the attention language model. */
struct AttentionLmConfig
{
    std::uint32_t vocab = 64;
    /** Embedding size = attention head size. */
    std::uint32_t embed = 16;
    /** MLP hidden width. */
    std::uint32_t hidden = 32;
    /** Maximum window length (learned positional embedding count). */
    std::uint32_t max_window = 64;
};

/** Offsets of each tensor inside the flat parameter vector. */
struct AttentionParamLayout
{
    std::size_t embedding = 0; // vocab x embed
    std::size_t pos = 0;       // max_window x embed
    std::size_t wq = 0;        // embed x embed
    std::size_t wk = 0;        // embed x embed
    std::size_t wv = 0;        // embed x embed
    std::size_t wo = 0;        // embed x embed
    std::size_t w1 = 0;        // hidden x embed
    std::size_t b1 = 0;        // hidden
    std::size_t w2 = 0;        // vocab x hidden
    std::size_t b2 = 0;        // vocab
    std::size_t total = 0;
};

/** Single-head causal attention LM with flat parameters. */
class AttentionLm : public Model
{
  public:
    AttentionLm(const AttentionLmConfig &cfg, std::uint64_t seed);

    const AttentionParamLayout &layout() const { return layout_; }

    std::size_t paramCount() const override { return params_.size(); }
    float *params() override { return params_.data(); }
    const float *params() const override { return params_.data(); }
    float *grads() override { return grads_.data(); }
    const float *grads() const override { return grads_.data(); }

    /**
     * Forward + backward. The @p count pairs are ONE contiguous causal
     * window: position i attends to positions 0..i of @p inputs and
     * predicts @p targets[i].
     */
    float trainBatch(const std::uint32_t *inputs,
                     const std::uint32_t *targets, std::size_t count,
                     float loss_scale = 1.0f) override;

    float evalBatch(const std::uint32_t *inputs,
                    const std::uint32_t *targets,
                    std::size_t count) const override;

  private:
    /**
     * Shared forward pass; fills the activation workspace and returns
     * the mean loss. @p probs_out (n x vocab) may be null in eval.
     */
    float forward(const std::uint32_t *inputs,
                  const std::uint32_t *targets, std::size_t n,
                  bool keep_probs) const;

    AttentionLmConfig cfg_;
    AttentionParamLayout layout_;
    std::vector<float> params_;
    std::vector<float> grads_;

    // Activation workspace, reused across calls (sized to the window).
    mutable std::vector<float> e_, q_, k_, v_;  // n x d each
    mutable std::vector<float> attn_;           // n x n (causal)
    mutable std::vector<float> ctx_, r_;        // n x d
    mutable std::vector<float> pre_, h_;        // n x hidden
    mutable std::vector<float> probs_;          // n x vocab
};

} // namespace so::nn

#endif // SO_NN_ATTENTION_LM_H
