/**
 * @file
 * Deterministic synthetic language-modelling corpus.
 *
 * The paper trains on a subset of the Pile (§5.1); this module is the
 * documented substitution (DESIGN.md): a token stream drawn from a
 * planted Markov chain whose rows are Zipf-distributed. The planted
 * structure means a real model trained on it exhibits the behaviour the
 * STV experiment needs — loss that falls from ln(V) toward the chain's
 * conditional entropy, with reproducible batches from a single seed.
 */
#ifndef SO_DATA_SYNTHETIC_CORPUS_H
#define SO_DATA_SYNTHETIC_CORPUS_H

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace so::data {

/** Parameters of the planted bigram corpus. */
struct CorpusConfig
{
    std::uint32_t vocab = 256;
    /** Zipf exponent of each row's transition distribution. */
    double zipf_exponent = 1.1;
    /** Number of plausible successors per token. */
    std::uint32_t branching = 16;
    /**
     * Markov order of the planted chain: 1 (bigram) or 2 (trigram).
     * Order 2 plants structure only visible with >= 2 tokens of
     * context — a model that sees just the current token (the MLP) is
     * information-theoretically stuck above the chain entropy, while
     * an attention model can reach it.
     */
    std::uint32_t order = 1;
    std::uint64_t seed = 42;
};

/**
 * Streaming corpus: next-token pairs drawn from a fixed random bigram
 * chain. Thread-compatible (one instance per thread).
 */
class SyntheticCorpus
{
  public:
    explicit SyntheticCorpus(const CorpusConfig &cfg);

    /**
     * Fill @p inputs / @p targets with @p count consecutive (current,
     * next) token pairs, advancing the stream.
     */
    void nextBatch(std::uint32_t *inputs, std::uint32_t *targets,
                   std::size_t count);

    /** Entropy rate of the planted chain in nats (loss floor). */
    double conditionalEntropy() const;

    /** The successor table row for @p token (order-1 test access). */
    const std::vector<std::uint32_t> &successors(std::uint32_t token) const;

  private:
    std::uint32_t step();

    /** Index into the successor table for the current context. */
    std::size_t stateIndex() const;

    CorpusConfig cfg_;
    Rng rng_;
    ZipfSampler zipf_;
    /** successors_[state] lists the branching successors of a context
     * (state = token for order 1, prev * vocab + token for order 2). */
    std::vector<std::vector<std::uint32_t>> successors_;
    std::uint32_t current_ = 0;
    std::uint32_t prev_ = 0;
};

} // namespace so::data

#endif // SO_DATA_SYNTHETIC_CORPUS_H
