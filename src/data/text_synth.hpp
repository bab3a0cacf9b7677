// Synthetic next-word-prediction corpora.
//
// Stand-ins for PTB, WikiText-2, and Reddit (see bench/README.md). Tokens are
// generated from a mixture of "topics": each topic owns a permutation bigram
// table (next = perm[prev]) followed with probability `structure_prob`;
// otherwise the next token is drawn from a Zipfian unigram. The structure
// probability controls the achievable top-k accuracy, matching the paper's
// ~30% top-3 regime. The Reddit-like variant gives every client its own
// Dirichlet topic mixture and a Zipf-distributed sample count (non-IID with
// unequal |D_k|, §V-A).
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace fedbiad::data {

struct TextSynthConfig {
  std::size_t vocab = 1000;
  std::size_t topics = 8;
  std::size_t seq_len = 12;        ///< model input length (tokens per sample)
  std::size_t train_sequences = 4000;
  std::size_t test_sequences = 500;
  double structure_prob = 0.35;    ///< P(bigram transition) vs Zipf draw
  double zipf_exponent = 1.05;
  std::uint64_t seed = 3;

  static TextSynthConfig ptb_like(std::uint64_t seed = 3);
  static TextSynthConfig wikitext2_like(std::uint64_t seed = 4);
  static TextSynthConfig reddit_like(std::uint64_t seed = 5);
};

struct TextDatasets {
  DatasetPtr train;
  DatasetPtr test;
  /// Per-client index lists into `train`. For the IID generators this is a
  /// plain random split; for the Reddit-like generator clients differ in
  /// both topic mixture and size.
  std::vector<std::vector<std::size_t>> client_indices;
};

/// IID corpus (PTB/WikiText-2-like): all clients sample the same topic
/// mixture; the train split is partitioned randomly without overlap.
TextDatasets make_text_datasets_iid(const TextSynthConfig& cfg,
                                    std::size_t clients);

/// Non-IID corpus (Reddit-like): per-client Dirichlet(`alpha`) topic mixture
/// and Zipf-distributed client sizes.
TextDatasets make_text_datasets_noniid(const TextSynthConfig& cfg,
                                       std::size_t clients,
                                       double alpha = 0.3);

}  // namespace fedbiad::data
