/**
 * @file
 * Digit recognition on PRIME: trains the Table III CNN-1 network on the
 * synthetic digit task and compares three execution paths:
 *
 *   1. float32 software inference,
 *   2. dynamic fixed point (6-bit inputs / 8-bit weights), and
 *   3. the full functional PrimeSystem: the composed datapath on the
 *      mats, driven by the controller's Table I commands, split-merge.
 *
 * It then prints the modeled speedup/energy advantage of PRIME over the
 * CPU and NPU baselines for this workload.
 */

#include <cstdio>

#include "nn/dataset.hh"
#include "nn/quantized.hh"
#include "prime/prime_system.hh"
#include "sim/evaluator.hh"

using namespace prime;

int
main()
{
    std::printf("PRIME digit recognition (CNN-1: conv5x5-pool-720-70-10)"
                "\n\n");

    nn::Topology topo = nn::mlBenchByName("CNN-1");
    nn::SyntheticMnist gen;
    std::vector<nn::Sample> train = gen.generate(1500);
    std::vector<nn::Sample> test = gen.generate(200);

    Rng rng(7);
    nn::Network net = nn::buildNetwork(topo, rng);
    nn::Trainer::Options opt;
    opt.epochs = 3;
    opt.learningRate = 0.05;
    nn::Trainer::train(net, train, opt);

    // 1. float32
    const double float_acc = nn::Trainer::evaluate(net, test);

    // 2. dynamic fixed point
    nn::QuantizedOptions qopt;
    qopt.inputBits = 6;
    qopt.weightBits = 8;
    nn::QuantizedNetwork qnet(topo, net, qopt);
    const double dfx_acc = qnet.accuracy(test);

    // 3. full functional PrimeSystem
    core::PrimeSystem prime;
    prime.mapTopology(topo);
    prime.programWeight(net);
    prime.configDatapath();
    prime.calibrate(std::vector<nn::Sample>(train.begin(),
                                            train.begin() + 30));
    int correct = 0;
    for (const nn::Sample &s : test)
        if (static_cast<int>(prime.run(s.input).argmax()) == s.label)
            ++correct;
    const double system_acc = static_cast<double>(correct) / test.size();

    std::printf("accuracy comparison (%zu test images):\n", test.size());
    std::printf("  float32 software:               %5.1f%%\n",
                100.0 * float_acc);
    std::printf("  dynamic fixed point (6b/8b):    %5.1f%%\n",
                100.0 * dfx_acc);
    std::printf("  full PrimeSystem (in-memory):   %5.1f%%\n\n",
                100.0 * system_acc);

    // Platform comparison for this benchmark.
    sim::Evaluator evaluator(nvmodel::defaultTechParams());
    sim::BenchmarkEvaluation e = evaluator.evaluate(topo);
    std::printf("modeled performance (per image, whole machine):\n");
    for (const sim::PlatformResult *r :
         {&e.cpu, &e.npuCo, &e.npuPimX1, &e.npuPimX64, &e.prime}) {
        std::printf("  %-14s %10.2f us   speedup %8.1fx   energy "
                    "saving %8.1fx\n",
                    r->platform.c_str(), r->timePerImage / 1e3,
                    r->speedupOver(e.cpu), r->energySavingOver(e.cpu));
    }
    std::printf("\nFF-subarray utilization: %.1f%% -> %.1f%% "
                "(replication, Section IV-B)\n",
                100.0 * e.plan.utilizationBefore,
                100.0 * e.plan.utilizationAfter);
    return 0;
}
