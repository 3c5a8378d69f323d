"""Physical constants (CODATA 2018 exact values, SI units).

Every module takes hbar and k_B from here so that golden numbers are
reproducible to the last digit.
"""

# Reduced Planck constant (J s)
HBAR = 1.054571817e-34

# Boltzmann constant (J/K), exact since the 2019 SI redefinition
K_B = 1.380649e-23

# 2 pi (math.tau): rates are stored in rad/s, files speak Hz
TWO_PI = 6.283185307179586
