/**
 * @file
 * XLM-R-style NLP embedding training over an XNLI-like token stream
 * (paper §VII: 262,144-entry vocabulary, 4 KiB rows).
 *
 * Sentences are synthesized as Zipf-distributed token sequences; each
 * "sentence" trains the embedding rows of its tokens through the
 * oblivious LAORAM path, using the two-stage pipeline so the
 * preprocessing of the next window overlaps the current one — and the
 * report shows it vanishing from the critical path (§VIII-A).
 */

#include <cstring>
#include <iostream>
#include <vector>

#include "core/laoram_client.hh"
#include "core/pipeline.hh"
#include "util/cli.hh"
#include "workload/xnli_synth.hh"

using namespace laoram;

int
main(int argc, char **argv)
{
    ArgParser args("xlmr_xnli",
                   "XLM-R-like embedding training over LAORAM");
    auto vocab = args.addUint("vocab", "vocabulary size", 1 << 15);
    auto tokens = args.addUint("tokens", "training tokens", 65536);
    auto superblock = args.addUint("superblock", "LAORAM S", 8);
    auto window = args.addUint("window", "pipeline window (tokens)",
                               4096);
    args.parse(argc, argv);

    std::cout << "XLM-R/XNLI-like training through LAORAM (fat tree, "
                 "S=" << *superblock << ")\n"
              << "vocab " << *vocab << ", " << *tokens
              << " training tokens\n\n";

    // Token stream: Zipf over the vocabulary, like natural language.
    workload::XnliParams xp;
    xp.vocabSize = *vocab;
    xp.accesses = *tokens;
    xp.seed = 5;
    const auto trace = workload::makeXnliTrace(xp);

    // Each vocabulary row is a small float vector stored obliviously.
    constexpr std::uint64_t kDim = 16;
    core::LaoramConfig lcfg;
    lcfg.base.numBlocks = *vocab;
    lcfg.base.blockBytes = 4096; // paper row size for accounting
    lcfg.base.payloadBytes = kDim * sizeof(float);
    lcfg.base.profile = oram::BucketProfile::fat(4);
    lcfg.base.seed = 6;
    lcfg.superblockSize = *superblock;
    core::Laoram oram(lcfg);

    // "Training": each touch nudges the token's row toward a running
    // context vector — a word2vec-flavoured update that exercises
    // read-modify-write on every fetched row.
    std::vector<float> context(kDim, 0.0f);
    std::uint64_t touches = 0;
    oram.setTouchCallback([&](oram::BlockId id,
                              std::vector<std::uint8_t> &payload) {
        float row[kDim];
        std::memcpy(row, payload.data(), sizeof(row));
        for (std::uint64_t i = 0; i < kDim; ++i) {
            const float target =
                context[i] + static_cast<float>(id % 7) * 0.01f;
            row[i] += 0.05f * (target - row[i]);
            context[i] = 0.99f * context[i] + 0.01f * row[i];
        }
        std::memcpy(payload.data(), row, sizeof(row));
        ++touches;
    });

    // Two-stage pipeline: preprocess window i+1 while serving i.
    core::PipelineConfig pipecfg;
    pipecfg.windowAccesses = *window;
    const auto rep = core::BatchPipeline(oram, pipecfg).run(trace.accesses);

    const auto &c = oram.meter().counters();
    std::cout << "windows:               " << rep.windows << "\n"
              << "row touches:           " << touches << "\n"
              << "pathReads per token:   " << c.pathReadsPerAccess()
              << "  (Zipf reuse collapses far below 1.0)\n"
              << "dummyReads per token:  " << c.dummyReadsPerAccess()
              << "\n"
              << "stash peak:            " << c.stashPeak << "\n\n"
              << "pipeline (measured): wall " << rep.wallTotalNs / 1e6
              << " ms, serve-thread stalls " << rep.wallStallNs / 1e6
              << " ms, " << rep.measuredPrepHiddenFraction * 100.0
              << "% hidden (paper: entirely off the critical path)\n";
    return 0;
}
