// glitchctl fuzz counterexample
// property: efficacy
// seed: 42
// defenses: enums,returns,integrity,branches,loops
// sensitive: g5,guard13,attack_success
// mutant: none
// message: Branches+Loops: addr 0x80000ba mask 0x4000: silent success — marker set with no detection

unsigned g5 = 0;

int h6(int p7) {
  return 1;
}

volatile unsigned guard13 = 0;

volatile unsigned attack_success = 0;

int main() {
  g5 = h6(0);
  __trigger_high();
  while (!(guard13)) {
    
  }
  attack_success = 170;
}
