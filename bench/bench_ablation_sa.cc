/**
 * @file
 * Design-choice ablation: reconfigurable-SA output precision Po.
 *
 * Section III-D fixes Po = 6 bits ("6-bit precision reconfigurable
 * sense amplifiers").  This sweep shows why: below ~5 bits the composed
 * datapath loses classification accuracy, while each extra bit costs SA
 * conversion time (SAR: one cycle per bit) on every one of the 2*cols
 * component conversions of every MVM phase.  One TechParams per Po
 * drives both columns: the accuracy of a calibrated PrimeSystem built
 * from it and the mat MVM latency its LatencyModel prices.
 */

#include <iostream>

#include "common/table.hh"
#include "nn/dataset.hh"
#include "nvmodel/latency_model.hh"
#include "prime/prime_system.hh"

using namespace prime;

int
main()
{
    std::cout << "\n=== PRIME reproduction: ablation - SA output "
                 "precision Po (Section III-D) ===\n\n";

    nn::Topology topo =
        nn::parseTopology("sa-mlp", "196-48-10", 1, 14, 14);
    nn::SyntheticMnistOptions o;
    o.seed = 31;
    nn::SyntheticMnist gen(o);
    std::vector<nn::Sample> train, test;
    auto shrink = [](const nn::Sample &s) {
        nn::Tensor img({1, 14, 14});
        for (int y = 0; y < 14; ++y)
            for (int x = 0; x < 14; ++x)
                img.at3(0, y, x) =
                    0.25 * (s.input.at3(0, 2 * y, 2 * x) +
                            s.input.at3(0, 2 * y + 1, 2 * x) +
                            s.input.at3(0, 2 * y, 2 * x + 1) +
                            s.input.at3(0, 2 * y + 1, 2 * x + 1));
        return nn::Sample{img, s.label};
    };
    for (const auto &s : gen.generate(700))
        train.push_back(shrink(s));
    for (const auto &s : gen.generate(200))
        test.push_back(shrink(s));
    Rng rng(16);
    nn::Network net = nn::buildNetwork(topo, rng);
    nn::Trainer::Options topt;
    topt.epochs = 6;
    topt.learningRate = 0.3;
    nn::Trainer::train(net, train, topt);
    const double float_acc = nn::Trainer::evaluate(net, test);
    std::cout << "float32 baseline: " << 100.0 * float_acc << "%\n\n";

    Table table({"Po (SA bits)", "hardware accuracy", "mat MVM latency",
                 "latency vs Po=6"});
    nvmodel::TechParams base = nvmodel::defaultTechParams();
    nvmodel::LatencyModel ref(base);
    const Ns t6 = ref.matMvm(false);

    for (int po = 2; po <= 8; ++po) {
        nvmodel::TechParams tech = base;
        tech.outputBits = po;

        core::PrimeSystem prime(tech);
        prime.mapTopology(topo);
        prime.programWeight(net);
        prime.configDatapath();
        prime.calibrate(std::vector<nn::Sample>(train.begin(),
                                                train.begin() + 60));
        std::size_t correct = 0;
        for (const nn::Sample &s : test)
            if (static_cast<int>(prime.run(s.input).argmax()) == s.label)
                ++correct;
        const double acc = static_cast<double>(correct) / test.size();

        nvmodel::LatencyModel lat(tech);
        const Ns t = lat.matMvm(false);

        table.row()
            .cell(static_cast<long long>(po))
            .percentCell(acc)
            .cell(formatCompact(t / 1e3, 3) + " us")
            .percentCell(t / t6 - 1.0);
    }
    table.print(std::cout,
                "SA precision vs accuracy and per-MVM latency (6b "
                "inputs, 8b weights)");

    std::cout << "\npaper's operating point: Po = 6 -- the knee where "
                 "accuracy saturates while each\nextra bit still costs "
                 "~17% more conversion time per MVM.\n";
    return 0;
}
