/**
 * @file
 * Figure 6 reproduction: classification accuracy of a LeNet-style CNN
 * (the Table III CNN-1 topology) on the synthetic-MNIST digit task, as
 * a function of input precision (x-axis, 1..8 bits) and synaptic weight
 * precision (series, 1..8 bits), both in dynamic fixed point.
 *
 * The paper's observation: 3-bit inputs and 3-bit weights already reach
 * ~99% accuracy -- NN inference is very robust to low precision.
 *
 * Also runs the composing-scheme ablation: the full PRIME hardware
 * datapath (3-bit input phases + 4-bit cells + 6-bit SA, Section III-D)
 * on the mapped crossbars of a PrimeSystem, against plain 6b/8b
 * software quantization.
 */

#include <iostream>

#include "common/table.hh"
#include "nn/dataset.hh"
#include "nn/quantized.hh"
#include "prime/prime_system.hh"

using namespace prime;
using namespace prime::nn;

int
main()
{
    std::cout << "\n=== PRIME reproduction: Figure 6 - precision vs "
                 "accuracy ===\n"
              << "substitution: MNIST -> deterministic synthetic digit "
                 "glyphs (see DESIGN.md)\n\n";

    // Train the CNN-1 topology (LeNet-style conv-pool-fc-fc).
    Topology topo = mlBenchByName("CNN-1");
    SyntheticMnist gen;
    std::vector<Sample> train = gen.generate(2000);
    std::vector<Sample> test = gen.generate(400);

    Rng rng(2016);
    Network net = buildNetwork(topo, rng);
    Trainer::Options opt;
    opt.epochs = 3;
    opt.learningRate = 0.05;
    Trainer::train(net, train, opt);
    const double float_acc = Trainer::evaluate(net, test);
    std::cout << "float32 baseline accuracy: " << 100.0 * float_acc
              << "%\n\n";

    // The Figure 6 sweep: rows = weight precision, cols = input
    // precision.
    Table table({"weights\\inputs", "1-bit", "2-bit", "3-bit", "4-bit",
                 "5-bit", "6-bit", "7-bit", "8-bit"});
    for (int wbits = 1; wbits <= 8; ++wbits) {
        table.row().cell("w " + std::to_string(wbits) + "-bit");
        for (int ibits = 1; ibits <= 8; ++ibits) {
            QuantizedOptions q;
            q.inputBits = ibits;
            q.weightBits = wbits;
            QuantizedNetwork qn(topo, net, q);
            table.percentCell(qn.accuracy(test));
        }
    }
    table.print(std::cout,
                "Accuracy vs input/weight precision (dynamic fixed "
                "point)");

    // Composing-scheme ablation: the actual hardware integer pipeline,
    // run on the mapped crossbars with SA windows profiled on training
    // data.
    QuantizedOptions sw;
    sw.inputBits = 6;
    sw.weightBits = 8;
    QuantizedNetwork qsw(topo, net, sw);
    core::PrimeSystem prime;
    prime.mapTopology(topo);
    prime.programWeight(net);
    prime.configDatapath();
    prime.calibrate(std::vector<Sample>(train.begin(), train.begin() + 50));
    std::size_t correct = 0;
    for (const Sample &s : test)
        if (static_cast<int>(prime.run(s.input).argmax()) == s.label)
            ++correct;
    const double hw_acc = static_cast<double>(correct) / test.size();

    std::cout << "\nComposing-scheme ablation (6-bit inputs, 8-bit "
                 "weights):\n"
              << "  software dynamic fixed point: "
              << 100.0 * qsw.accuracy(test) << "%\n"
              << "  PRIME composed datapath:      "
              << 100.0 * hw_acc << "%\n"
              << "paper shape: >=3-bit input and weight precision "
                 "suffices; the composed\nhardware pipeline tracks the "
                 "software quantization.\n";
    return 0;
}
