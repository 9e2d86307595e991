module top_module (input a, output y);
    initial $ ;
    assign y = a;
endmodule
