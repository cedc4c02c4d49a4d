// glitchctl fuzz counterexample
// property: efficacy
// seed: 7
// defenses: enums,returns,integrity,branches,loops
// sensitive: attack_success
// mutant: branches-complement
// message: Branches+Loops: addr 0x8000092 mask 0x0100: silent success — marker set with no detection

volatile unsigned attack_success = 0;

int main() {
  __trigger_high();
  while (!(0)) {
    
  }
  attack_success = 170;
}
